module Cache = Cffs_cache.Cache
module Inode = Cffs_vfs.Inode
module Errno = Cffs_vfs.Errno
module Bmap = Cffs_vfs.Bmap
module Dirent = Ffs.Dirent
open Errno

(* Directory content has two on-disk formats: {!Cdir} chunks (names with
   embedded inodes) when [embed_inodes], FFS-style dense records
   otherwise (inodes all external).  A mount picks one; a dense hit reads
   as an entry whose inode is external. *)
type format = {
  max_name : int;
  init : bytes -> unit;
  locate : bytes -> string -> int;
      (** the entry's chunk or record offset, or [-1]; allocates nothing *)
  embedded : bytes -> int -> bool;  (** the entry there carries its inode *)
  ext_ino : bytes -> int -> int;  (** the external inode it names *)
  probe : bytes -> string -> [ `Hit of Cdir.entry | `Room of int | `Full ];
  add : bytes -> int -> string -> int -> unit;
  remove : bytes -> int -> string -> unit;
  iter : bytes -> (Cdir.entry -> unit) -> unit;
  positional : bool;  (** entries' inode numbers depend on their block *)
}

let chunks =
  {
    max_name = Cdir.max_name;
    init = Cdir.init_block;
    locate = Cdir.locate;
    embedded = Cdir.embedded;
    ext_ino = Cdir.ext_ino;
    probe = Cdir.probe;
    add = Cdir.set_external;
    remove = (fun b chunk _ -> Cdir.clear b chunk);
    iter = Cdir.iter;
    positional = true;
  }

let dense_entry name ino = { Cdir.chunk = 0; name; embedded = false; ext_ino = ino }

let dense =
  {
    max_name = Cffs_vfs.Path.max_name;
    init = Dirent.init_block;
    locate = Dirent.locate;
    embedded = (fun _ _ -> false);
    ext_ino = Dirent.get_ino;
    probe =
      (fun b name ->
        match Dirent.probe b name with
        | `Hit (_, ino) -> `Hit (dense_entry name ino)
        | (`Room _ | `Full) as r -> r);
    add = Dirent.insert_at;
    remove = (fun b _ name -> ignore (Dirent.remove b name));
    iter = (fun b f -> Dirent.iter b (fun ~off:_ ~ino name -> f (dense_entry name ino)));
    positional = false;
  }

let format ~embed_inodes = if embed_inodes then chunks else dense
let max_name f = f.max_name

type found = { f_pblock : int; f_ino : int; f_embedded : bool; f_chunk : int }
type carried = Embed of Inode.t | Ext of int

module type FS = sig
  include Dirindex.FS

  val format : t -> format
  val embed_ino : t -> pblock:int -> chunk:int -> int
  val mapped : t -> Inode.t -> int -> int Errno.result
  val dir_block : t -> ino:int -> Inode.t -> int -> (int * bytes) Errno.result

  val dir_scan :
    t -> ino:int -> Inode.t -> (lblk:int -> bytes -> 'a option) -> 'a option Errno.result

  val dir_probe :
    t ->
    ino:int ->
    Inode.t ->
    (bytes -> [< `Hit of 'a | `Room of int | `Full ]) ->
    [ `Found of int * 'a | `Absent of (int * int) option ] Errno.result
end

module Make (F : FS) = struct
  module Index = Dirindex.Make (F)

  let bs t = (F.sb t).Csb.block_size
  let nblocks t (inode : Inode.t) = (inode.Inode.size + bs t - 1) / bs t

  (* Visit every block of a linear directory with its physical number. *)
  let iter_blocks t ~dir dinode f =
    let* stop =
      F.dir_scan t ~ino:dir dinode (fun ~lblk b ->
          match F.mapped t dinode lblk with
          | Ok pblock ->
              f ~pblock b;
              None
          | Error e -> Some e)
    in
    match stop with None -> Ok () | Some e -> Error e

  let found t ~pblock (e : Cdir.entry) =
    {
      f_pblock = pblock;
      f_ino = F.chunk_ino t ~pblock e;
      f_embedded = e.Cdir.embedded;
      f_chunk = e.Cdir.chunk;
    }

  (* The entry a linear walk stopped at in logical block [lblk]. *)
  let linear_found t dinode lblk e =
    match F.mapped t dinode lblk with
    | Ok pblock -> Ok (found t ~pblock e)
    | Error e -> Error e

  (* The entry at position [pos] of logical block [lblk] (buffer [b]),
     read in place: a lookup decodes no entry and copies no name. *)
  let found_at t dinode fmt lblk b pos =
    match F.mapped t dinode lblk with
    | Error e -> Error e
    | Ok pblock ->
        let embedded = fmt.embedded b pos in
        Ok
          {
            f_pblock = pblock;
            f_ino = (if embedded then F.embed_ino t ~pblock ~chunk:pos else fmt.ext_ino b pos);
            f_embedded = embedded;
            f_chunk = (if fmt.positional then pos else 0);
          }

  let find t ~dir dinode name =
    if Index.indexed t dinode then begin
      match Index.find t dinode name with
      | Ok (Some (pblock, e)) -> Ok (Some (found t ~pblock e))
      | Ok None -> Ok None
      | Error e -> Error e
    end
    else begin
      let fmt = F.format t in
      match
        F.dir_scan t ~ino:dir dinode (fun ~lblk b ->
            let pos = fmt.locate b name in
            if pos < 0 then None else Some (found_at t dinode fmt lblk b pos))
      with
      | Ok (Some (Ok f)) -> Ok (Some f)
      | Ok (Some (Error e)) | Error e -> Error e
      | Ok None -> Ok None
    end

  (* A create's one pass: [`Found] the entry already named [name], or
     [`Absent slot] with the first place that takes it (logical block, and
     chunk or record offset).  [slot] is [None] when every block is full,
     and always for an indexed directory, whose index places entries
     itself.  The pass only reads: growing or promoting the directory is
     left to [add], after whatever the caller allocates first. *)
  let probe t ~dir dinode name =
    if Index.indexed t dinode then begin
      match find t ~dir dinode name with
      | Ok (Some f) -> Ok (`Found f)
      | Ok None -> Ok (`Absent None)
      | Error e -> Error e
    end
    else begin
      let fmt = F.format t in
      match F.dir_probe t ~ino:dir dinode (fun b -> fmt.probe b name) with
      | Ok (`Found (lblk, e)) -> (
          match linear_found t dinode lblk e with
          | Ok f -> Ok (`Found f)
          | Error e -> Error e)
      | Ok (`Absent slot) -> Ok (`Absent slot)
      | Error e -> Error e
    end

  let slot t ~dir dinode name =
    match probe t ~dir dinode name with
    | Ok (`Absent slot) -> Ok slot
    | Ok (`Found _) -> Error Eexist
    | Error e -> Error e

  (* Grow the directory by one (grouped) block; returns (lblk, pblock, buffer).
     The buffer is not yet written — the caller writes it with the new entry in
     place, so creation costs a single directory-block write. *)
  let grow t ~dir dinode =
    let lblk = nblocks t dinode in
    let* p =
      Bmap.alloc (F.cache t) dinode lblk ~alloc:(fun ~hint:_ ->
          F.alloc_grouped t ~dir_ino:dir ~dinode)
    in
    let b = Bytes.make (bs t) '\000' in
    (F.format t).init b;
    dinode.Inode.size <- dinode.Inode.size + bs t;
    dinode.Inode.mtime <- F.mtime_now t;
    Ok (lblk, p, b)

  (* The insert tail: write [name] into the [slot] the probe found.  With
     no slot, the index places it; a linear embedded directory that is
     full and past the promotion threshold becomes indexed first (the
     insert that overflows it pays for the promotion); any other grows by
     a block.  [after] is a block that must reach the disk before the
     entry's; [subdir] counts the new entry's ".." link in [dinode].  The
     directory inode is written when it grew or gained that link.  Returns
     the entry's block and chunk. *)
  (* Write the entry into place [at] of block [p] (buffer [b]), logical
     block [lblk] of the directory or [-1] for an index leaf. *)
  let place t ~dir dinode ~lblk p b at name carried ~after ~subdir ~grew =
    (match carried with
    | Embed inode -> Cdir.set_embedded b at name inode
    | Ext ino -> (F.format t).add b at name ino);
    let cache = F.cache t in
    Cache.write cache ~kind:`Meta p b;
    if lblk >= 0 then Cache.set_logical cache p ~ino:dir ~lblk;
    (match after with Some first -> Cache.order cache ~first ~second:p | None -> ());
    if subdir then dinode.Inode.nlink <- dinode.Inode.nlink + 1;
    if grew || subdir then
      match F.write_inode t dir dinode ~kind:`Meta with
      | Ok () -> Ok (p, at)
      | Error e -> Error e
    else Ok (p, at)

  let add t ~dir dinode slot name carried ~after ~subdir =
    let sb = F.sb t in
    let thr = sb.Csb.dirindex_threshold in
    let indexed = Index.indexed t dinode in
    match slot with
    | Some (lblk, at) -> (
        match F.dir_block t ~ino:dir dinode lblk with
        | Ok (p, b) -> place t ~dir dinode ~lblk p b at name carried ~after ~subdir ~grew:false
        | Error e -> Error e)
    | None when indexed || (sb.Csb.embed_inodes && thr > 0 && nblocks t dinode >= thr) ->
        let* () =
          if indexed then Ok ()
          else Index.promote t ~dir dinode ~linear:(iter_blocks t ~dir dinode)
        in
        let* p, b, c = Index.reserve t ~dir dinode name in
        place t ~dir dinode ~lblk:(-1) p b c name carried ~after ~subdir ~grew:false
    | None ->
        let* lblk, p, b = grow t ~dir dinode in
        place t ~dir dinode ~lblk p b 0 name carried ~after ~subdir ~grew:true

  (* Every live entry with its block, indexed or linear.  A positional
     format's walk asks each block for its physical number, which its
     entries' inode numbers need; a dense one's never does. *)
  let walk t ~dir dinode f =
    if Index.indexed t dinode then begin
      Index.iter t dinode ~entry:f ~meta:ignore ~bad:ignore;
      Ok ()
    end
    else begin
      let fmt = F.format t in
      if fmt.positional then
        iter_blocks t ~dir dinode (fun ~pblock b -> fmt.iter b (f ~pblock b))
      else begin
        let* _none =
          F.dir_scan t ~ino:dir dinode (fun ~lblk:_ b ->
              fmt.iter b (f ~pblock:0 b);
              None)
        in
        Ok ()
      end
    end

  let entries t ~dir dinode =
    let acc = ref [] in
    let* () =
      walk t ~dir dinode (fun ~pblock _ e ->
          acc := (e.Cdir.name, F.chunk_ino t ~pblock e) :: !acc)
    in
    Ok (List.rev !acc)

  (* rmdir's emptiness test: the same walk, counting. *)
  let live_entries t ~dir dinode =
    let n = ref 0 in
    let* () = walk t ~dir dinode (fun ~pblock:_ _ _ -> incr n) in
    Ok !n

  (* Remove the entry [f] found for [name] (and, embedded, its inode with
     it) in one block write; returns the block. *)
  let clear t f name =
    let cache = F.cache t in
    let b = Cache.read cache f.f_pblock in
    (F.format t).remove b f.f_chunk name;
    Cache.write cache ~kind:`Meta f.f_pblock b;
    b
end
