module Codec = Cffs_util.Codec

type kind = Free | Regular | Directory

type t = {
  mutable kind : kind;
  mutable nlink : int;
  mutable size : int;
  mutable mtime : int;
  mutable generation : int;
  mutable flags : int;
  direct : int array;
  mutable indirect : int;
  mutable dindirect : int;
  spare : int array;
}

let n_direct = 12
let n_spare = 4
let size_bytes = 128
let link_max = 65000

let empty () =
  {
    kind = Free;
    nlink = 0;
    size = 0;
    mtime = 0;
    generation = 0;
    flags = 0;
    direct = Array.make n_direct 0;
    indirect = 0;
    dindirect = 0;
    spare = Array.make n_spare 0;
  }

let mk kind =
  let t = empty () in
  t.kind <- kind;
  t.nlink <- (match kind with Directory -> 2 | Regular | Free -> 1);
  t

let kind_code = function Free -> 0 | Regular -> 1 | Directory -> 2

let kind_of_code = function
  | 0 -> Some Free
  | 1 -> Some Regular
  | 2 -> Some Directory
  | _ -> None

let encode t b off =
  Codec.set_u16 b off (kind_code t.kind);
  Codec.set_u16 b (off + 2) t.nlink;
  Codec.set_u64 b (off + 4) t.size;
  Codec.set_u32 b (off + 12) t.mtime;
  Codec.set_u32 b (off + 16) t.generation;
  Codec.set_u32 b (off + 20) t.flags;
  for i = 0 to n_direct - 1 do
    Codec.set_u32 b (off + 24 + (4 * i)) t.direct.(i)
  done;
  Codec.set_u32 b (off + 72) t.indirect;
  Codec.set_u32 b (off + 76) t.dindirect;
  for i = 0 to n_spare - 1 do
    Codec.set_u32 b (off + 80 + (4 * i)) t.spare.(i)
  done;
  Codec.zero b (off + 96) (size_bytes - 96)

(* Loops rather than [Array.init]: a decode builds no closure. *)
let decode b off =
  let direct = Array.make n_direct 0 and spare = Array.make n_spare 0 in
  for i = 0 to n_direct - 1 do
    direct.(i) <- Codec.get_u32 b (off + 24 + (4 * i))
  done;
  for i = 0 to n_spare - 1 do
    spare.(i) <- Codec.get_u32 b (off + 80 + (4 * i))
  done;
  {
    kind = (match kind_of_code (Codec.get_u16 b off) with Some k -> k | None -> Free);
    nlink = Codec.get_u16 b (off + 2);
    size = Codec.get_u64 b (off + 4);
    mtime = Codec.get_u32 b (off + 12);
    generation = Codec.get_u32 b (off + 16);
    flags = Codec.get_u32 b (off + 20);
    direct;
    indirect = Codec.get_u32 b (off + 72);
    dindirect = Codec.get_u32 b (off + 76);
    spare;
  }

(* [decode b off = t], field by field, without building the record.
   Every field [decode] reads is compared, and an unknown kind code
   compares as [Free], as [decode] reads it. *)
let rec same_u32s a b off i n =
  i >= n || (a.(i) = Codec.get_u32 b (off + (4 * i)) && same_u32s a b off (i + 1) n)

let same t b off =
  let code = Codec.get_u16 b off in
  t.kind = (if code = 1 then Regular else if code = 2 then Directory else Free)
  && t.nlink = Codec.get_u16 b (off + 2)
  && t.size = Codec.get_u64 b (off + 4)
  && t.mtime = Codec.get_u32 b (off + 12)
  && t.generation = Codec.get_u32 b (off + 16)
  && t.flags = Codec.get_u32 b (off + 20)
  && t.indirect = Codec.get_u32 b (off + 72)
  && t.dindirect = Codec.get_u32 b (off + 76)
  && same_u32s t.direct b (off + 24) 0 n_direct
  && same_u32s t.spare b (off + 80) 0 n_spare

module Table = struct
  let slots = 64

  (* Direct-mapped on the inode number's low bits: slot [i] holds the
     record last decoded for inode [keys.(i)]. *)
  type nonrec t = { keys : int array; recs : t array }

  let create () = { keys = Array.make slots (-1); recs = Array.make slots (empty ()) }

  let decode tbl ino b off =
    let i = ino land (slots - 1) in
    let r = tbl.recs.(i) in
    if tbl.keys.(i) = ino && same r b off then r
    else begin
      let r = decode b off in
      tbl.keys.(i) <- ino;
      tbl.recs.(i) <- r;
      r
    end
end

let copy t = { t with direct = Array.copy t.direct; spare = Array.copy t.spare }

let max_addressable_blocks ~ptrs_per_block =
  n_direct + ptrs_per_block + (ptrs_per_block * ptrs_per_block)

let pp ppf t =
  Format.fprintf ppf "{%s nlink=%d size=%d}"
    (match t.kind with Free -> "free" | Regular -> "reg" | Directory -> "dir")
    t.nlink t.size
