module Codec = Cffs_util.Codec
module Inode = Cffs_vfs.Inode

let chunk_bytes = 256
let max_name = 119
let chunks_per_block ~block_size = block_size / chunk_bytes
let chunk_off i = i * chunk_bytes
let inode_off i = chunk_off i + 128

type entry = { chunk : int; name : string; embedded : bool; ext_ino : int }

let init_block b = Bytes.fill b 0 (Bytes.length b) '\000'

(* Chunk states: 0 free, 1 live entry, 2 overflow link (an indexed
   directory's pointer to the next leaf of a bucket chain).  Anything
   else is corruption; only state 1 is a decodable entry. *)
let state_free = 0
let state_entry = 1
let state_overflow = 2

let state b i = Codec.get_u8 b (chunk_off i)

let embedded b i = Codec.get_u16 b (chunk_off i + 2) land 1 <> 0
let ext_ino b i = Codec.get_u32 b (chunk_off i + 4)

(* Chunk [i], known to be a live entry. *)
let decode_entry b i =
  let off = chunk_off i in
  (* Untrusted on-disk byte: clamp so a corrupt chunk cannot push the
     name read past the chunk's own name field. *)
  let namelen = min (Codec.get_u8 b (off + 1)) max_name in
  {
    chunk = i;
    name = Codec.get_string b (off + 8) namelen;
    embedded = embedded b i;
    ext_ino = ext_ino b i;
  }

let read_entry b i = if state b i <> state_entry then None else Some (decode_entry b i)

let iter b f =
  let n = chunks_per_block ~block_size:(Bytes.length b) in
  for i = 0 to n - 1 do
    match read_entry b i with Some e -> f e | None -> ()
  done

let fold b ~init ~f =
  let acc = ref init in
  iter b (fun e -> acc := f !acc e);
  !acc

(* Whether chunk [i] is a live entry named [name]: [read_entry]'s state
   test and namelen clamp, with the name compared in place. *)
let holds b i name =
  let off = chunk_off i in
  Codec.get_u8 b off = state_entry
  && min (Codec.get_u8 b (off + 1)) max_name = String.length name
  && Codec.equal_string b (off + 8) name

(* Allocates nothing. *)
let rec locate_from b name n i =
  if i >= n then -1 else if holds b i name then i else locate_from b name n (i + 1)

let locate b name = locate_from b name (chunks_per_block ~block_size:(Bytes.length b)) 0

(* Only the matching chunk is decoded. *)
let find b name =
  let i = locate b name in
  if i < 0 then None else Some (decode_entry b i)

(* [find]'s walk, noting the first free chunk on the way. *)
let rec probe_from b name n room i =
  if i >= n then if room >= 0 then `Room room else `Full
  else if holds b i name then `Hit (decode_entry b i)
  else
    let room = if room < 0 && state b i = state_free then i else room in
    probe_from b name n room (i + 1)

let probe b name = probe_from b name (chunks_per_block ~block_size:(Bytes.length b)) (-1) 0

let find_free ?limit b =
  let n = chunks_per_block ~block_size:(Bytes.length b) in
  let n = match limit with Some l -> min l n | None -> n in
  let rec loop i =
    if i >= n then None
    else if Codec.get_u8 b (chunk_off i) = state_free then Some i
    else loop (i + 1)
  in
  loop 0

let live_count b = fold b ~init:0 ~f:(fun acc _ -> acc + 1)

let write_header b i ~name ~flags ~ext_ino =
  let off = chunk_off i in
  if String.length name > max_name then invalid_arg "Cdir: name too long";
  Codec.set_u8 b off 1;
  Codec.set_u8 b (off + 1) (String.length name);
  Codec.set_u16 b (off + 2) flags;
  Codec.set_u32 b (off + 4) ext_ino;
  Codec.set_cstring b (off + 8) (chunk_bytes - 128 - 8) name

let set_embedded b i name inode =
  write_header b i ~name ~flags:1 ~ext_ino:0;
  Inode.encode inode b (inode_off i)

let set_external b i name ino =
  write_header b i ~name ~flags:0 ~ext_ino:ino;
  Codec.zero b (inode_off i) 128

let clear b i = Codec.zero b (chunk_off i) chunk_bytes

let set_overflow b i ~next =
  let off = chunk_off i in
  Codec.zero b off chunk_bytes;
  Codec.set_u8 b off state_overflow;
  Codec.set_u32 b (off + 4) next

let get_overflow b i =
  if state b i = state_overflow then Some (Codec.get_u32 b (chunk_off i + 4))
  else None

let read_inode b i = Inode.decode b (inode_off i)
let write_inode b i inode = Inode.encode inode b (inode_off i)
