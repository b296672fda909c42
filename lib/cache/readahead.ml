(* Adaptive per-file sequential readahead state.

   Each file (ino) carries a detector: [note] records every logical-block
   access and grows a hit streak while accesses stay sequential, resetting
   it — and the window — on a seek.  [advise], consulted on a cache miss,
   returns how many blocks beyond the missed one are worth prefetching:
   nothing without a streak, otherwise a window that doubles on every
   readahead event (miss-with-streak) from 2 up to [max_window].  Short or
   random access patterns therefore never pay for prefetch; a sustained
   sequential stream converges to full-window transfers within a handful
   of requests. *)

module Int_tbl = Cffs_util.Keys.Int_tbl

type entry = { mutable last : int; mutable streak : int; mutable window : int }

type t = {
  max_window : int;
  capacity : int;
  states : entry Int_tbl.t;
}

let g_window = Cffs_obs.Registry.gauge "cache.readahead_window"
let m_resets = Cffs_obs.Registry.counter "cache.readahead_resets"

let create ?(capacity = 1024) ~max_window () =
  if max_window < 0 then invalid_arg "Readahead.create: max_window";
  { max_window; capacity; states = Int_tbl.create 64 }

let max_window t = t.max_window

let entry t ino =
  match Int_tbl.find_opt t.states ino with
  | Some e -> e
  | None ->
      (* Wholesale drop when full: crude, but bounds the table and a hot
         stream rebuilds its streak in two accesses. *)
      if Int_tbl.length t.states >= t.capacity then Int_tbl.reset t.states;
      let e = { last = min_int; streak = 0; window = 0 } in
      Int_tbl.replace t.states ino e;
      e

let note t ~ino ~lblk =
  if t.max_window > 0 then begin
    let e = entry t ino in
    if e.last = lblk - 1 then e.streak <- e.streak + 1
    else if e.last <> lblk then begin
      (* a seek (re-reading the same block keeps the streak) *)
      if e.streak > 0 || e.window > 0 then Cffs_obs.Registry.incr m_resets;
      e.streak <- 0;
      e.window <- 0
    end;
    e.last <- lblk
  end

let advise t ~ino ~lblk =
  if t.max_window = 0 then 0
  else begin
    let e = entry t ino in
    if e.last <> lblk - 1 || e.streak = 0 then 0
    else begin
      e.window <-
        (if e.window = 0 then min t.max_window 2
         else min t.max_window (e.window * 2));
      Cffs_obs.Registry.set g_window (float_of_int e.window);
      e.window
    end
  end

let window t ~ino =
  match Int_tbl.find_opt t.states ino with None -> 0 | Some e -> e.window

let forget t ~ino = Int_tbl.remove t.states ino
let reset t = Int_tbl.reset t.states
