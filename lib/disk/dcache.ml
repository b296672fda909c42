type seg = {
  mutable start : int;
  mutable stop : int; (* exclusive *)
  mutable frontier_open : bool; (* prefetch still running past [stop] *)
  mutable cap : int; (* maximum [stop] value: start + segment capacity *)
}

(* The segments live in a fixed array of [max_segments] records, most
   recently used first; [segs.(0 .. n-1)] are the cached ones and the rest
   are spares.  Reordering moves records within the array and [install]
   reuses a spare (or the least recently used record), so no call
   allocates. *)
type t = {
  max_segments : int;
  segment_sectors : int;
  segs : seg array;
  mutable n : int;
}

let create ~segments ~segment_sectors =
  assert (segments > 0 && segment_sectors > 0);
  {
    max_segments = segments;
    segment_sectors;
    segs =
      Array.init segments (fun _ -> { start = 0; stop = 0; frontier_open = false; cap = 0 });
    n = 0;
  }

let settle t ~gain ~max_lba =
  for i = 0 to t.n - 1 do
    let s = t.segs.(i) in
    if s.frontier_open then begin
      s.stop <- Int.min (Int.min s.cap max_lba) (s.stop + gain);
      if s.stop >= Int.min s.cap max_lba then s.frontier_open <- false
    end
  done

(* Move the record at [i] to the front, keeping the others in order. *)
let to_front t i =
  let s = t.segs.(i) in
  Array.blit t.segs 0 t.segs 1 i;
  t.segs.(0) <- s

(* The searches are top-level functions: a local one capturing [lba]
   would allocate its closure on every call. *)
let rec find_hit t lba sectors i =
  if i >= t.n then false
  else
    let seg = t.segs.(i) in
    if lba >= seg.start && lba + sectors <= seg.stop then begin
      to_front t i;
      true
    end
    else find_hit t lba sectors (i + 1)

let hit t ~lba ~sectors = find_hit t lba sectors 0

let rec find_stream t lba sectors i =
  if i >= t.n then -1
  else
    let seg = t.segs.(i) in
    if seg.frontier_open && lba >= seg.start && lba <= seg.stop
       && lba + sectors > seg.stop
    then begin
      let cached = seg.stop - lba in
      (* The stream continues through the request; the segment behaves as
         a ring buffer, discarding its oldest data if necessary. *)
      seg.start <- Int.max seg.start (lba + sectors - t.segment_sectors);
      seg.cap <- Int.max seg.cap (lba + sectors + t.segment_sectors);
      seg.stop <- lba + sectors;
      to_front t i;
      cached
    end
    else find_stream t lba sectors (i + 1)

let streaming t ~lba ~sectors = find_stream t lba sectors 0

let close_open t =
  for i = 0 to t.n - 1 do
    t.segs.(i).frontier_open <- false
  done

(* Drop the cached segments overlapping [lba, stop), keeping the order of
   the rest; dropped records become spares. *)
let drop_overlapping t lba stop =
  let kept = ref 0 in
  for i = 0 to t.n - 1 do
    let s = t.segs.(i) in
    if not (s.start < stop && lba < s.stop) then begin
      t.segs.(i) <- t.segs.(!kept);
      t.segs.(!kept) <- s;
      incr kept
    end
  done;
  t.n <- !kept

let install t ~lba ~sectors =
  let stop = lba + sectors in
  drop_overlapping t lba stop;
  if t.n >= t.max_segments then t.n <- t.max_segments - 1;
  let seg = t.segs.(t.n) in
  seg.start <- lba;
  seg.stop <- stop;
  seg.frontier_open <- true;
  (* Read-ahead may run a full segment past the request's end. *)
  seg.cap <- stop + t.segment_sectors;
  t.n <- t.n + 1;
  to_front t (t.n - 1)

let invalidate t ~lba ~sectors = drop_overlapping t lba (lba + sectors)
let clear t = t.n <- 0
