module Codec = Cffs_util.Codec
module Bitview = Cffs_util.Bitview

type map = {
  bitmap : int;
  free : int;
  origin : int;
  per_group : int;
  groups : int;
  first : int;
}

let map ~bitmap ~free ~origin ~per_group ~groups ~first =
  { bitmap; free; origin; per_group; groups; first }

let group m n = (n - m.origin) / m.per_group
let start m g = m.origin + (g * m.per_group)
let free_count m b = Codec.get_u32 b m.free
let mem m b i = Bitview.get b m.bitmap i

let format m b =
  for i = 0 to m.first - 1 do
    Bitview.set b m.bitmap i
  done;
  Codec.set_u32 b m.free (m.per_group - m.first)

let claim m b i =
  assert (not (mem m b i));
  Bitview.set b m.bitmap i;
  Codec.set_u32 b m.free (free_count m b - 1)

(* The first free index at or after [hint], wrapping; only indices from
   [first] up are ever handed out. *)
let take m b ~hint =
  if free_count m b = 0 then None
  else begin
    match Bitview.find_clear b m.bitmap ~len:m.per_group ~hint:(max m.first hint) with
    | Some i when i >= m.first ->
        claim m b i;
        Some i
    | Some _ | None -> None
  end

let probe m ~cg f =
  let rec go i =
    if i >= m.groups then None
    else begin
      match f ((cg + i) mod m.groups) with Some _ as r -> r | None -> go (i + 1)
    end
  in
  go 0

module type HEADERS = sig
  type t

  val read : t -> int -> bytes
  val write : t -> int -> bytes -> unit
end

module Make (H : HEADERS) = struct
  let take_near t m ~cg ~hint =
    let hint = if hint > 0 && group m hint = cg then hint - start m cg else m.first in
    let home = cg mod m.groups in
    probe m ~cg:home (fun g ->
        let b = H.read t g in
        match take m b ~hint:(if g = home then hint else m.first) with
        | Some i ->
            H.write t g b;
            Some (start m g + i)
        | None -> None)

  let release t m n =
    let g = group m n in
    let i = n - start m g in
    let b = H.read t g in
    if mem m b i then begin
      Bitview.clear b m.bitmap i;
      Codec.set_u32 b m.free (free_count m b + 1);
      H.write t g b
    end

  let claim t m n =
    let g = group m n in
    let b = H.read t g in
    claim m b (n - start m g);
    H.write t g b
end
