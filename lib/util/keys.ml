(* Multiply by an odd 62-bit constant (low bits stay a bijection), then
   fold the high half down so the low bits depend on every input bit. *)
let mix x =
  let h = x * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

module Int = struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end

let pair_hash a b = mix (mix a + b)

module Int_tbl = Hashtbl.Make (Int)

(* Open addressing with linear probing over three parallel int arrays,
   so no operation allocates except a resize.  A free slot has [min_int]
   as its first key.  Deletion shifts the rest of the probe run back
   instead of leaving a tombstone, so a run never holds a free slot. *)
module Pair_tbl = struct
  type t = {
    initial : int;
    mutable mask : int;
    mutable fst : int array;
    mutable snd : int array;
    mutable value : int array;
    mutable count : int;
  }

  let free = min_int

  let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

  let create n =
    let cap = pow2 (2 * max n 8) 16 in
    {
      initial = cap;
      mask = cap - 1;
      fst = Array.make cap free;
      snd = Array.make cap 0;
      value = Array.make cap 0;
      count = 0;
    }

  let length t = t.count

  (* The slot holding [(a, b)], or the free slot ending its probe run. *)
  let rec slot t a b i =
    let k = t.fst.(i) in
    if k = free || (k = a && t.snd.(i) = b) then i else slot t a b ((i + 1) land t.mask)

  let find t a b =
    let i = slot t a b (pair_hash a b land t.mask) in
    if t.fst.(i) = free then -1 else t.value.(i)

  let rec insert_all t fst snd value i =
    if i < Array.length fst then begin
      let a = fst.(i) in
      if a <> free then begin
        let j = slot t a snd.(i) (pair_hash a snd.(i) land t.mask) in
        t.fst.(j) <- a;
        t.snd.(j) <- snd.(i);
        t.value.(j) <- value.(i)
      end;
      insert_all t fst snd value (i + 1)
    end

  let empty t cap =
    t.mask <- cap - 1;
    t.fst <- Array.make cap free;
    t.snd <- Array.make cap 0;
    t.value <- Array.make cap 0

  let resize t cap =
    let fst = t.fst and snd = t.snd and value = t.value in
    empty t cap;
    insert_all t fst snd value 0

  let replace t a b v =
    if a = free then invalid_arg "Keys.Pair_tbl.replace: min_int key";
    let i = slot t a b (pair_hash a b land t.mask) in
    if t.fst.(i) = free then begin
      t.fst.(i) <- a;
      t.snd.(i) <- b;
      t.count <- t.count + 1
    end;
    t.value.(i) <- v;
    if 2 * t.count > t.mask then resize t (2 * (t.mask + 1))

  (* Close the hole at [hole]: move back each later member of the run
     whose home slot does not lie cyclically in (hole, j]. *)
  let rec shift t hole j =
    let a = t.fst.(j) in
    if a = free then t.fst.(hole) <- free
    else begin
      let home = pair_hash a t.snd.(j) land t.mask in
      let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
      if stays then shift t hole ((j + 1) land t.mask)
      else begin
        t.fst.(hole) <- a;
        t.snd.(hole) <- t.snd.(j);
        t.value.(hole) <- t.value.(j);
        shift t j ((j + 1) land t.mask)
      end
    end

  let remove t a b =
    let i = slot t a b (pair_hash a b land t.mask) in
    if t.fst.(i) <> free then begin
      t.count <- t.count - 1;
      shift t i ((i + 1) land t.mask)
    end

  let reset t =
    if t.mask + 1 > t.initial then empty t t.initial else Array.fill t.fst 0 (t.mask + 1) free;
    t.count <- 0
end
