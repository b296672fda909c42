(* Reference model of the tagged command queue, for tests only: the
   definition written as plain list scans (O(W) per eligibility check,
   O(W^2) per dispatch), without the metrics.  [Cffs_disk.Ioqueue] must
   return the same groups, passes, pending counts and clear lists under
   every policy, depth and coalesce setting. *)

open Cffs_disk

type 'a item = {
  tag : int;
  req : Request.t;
  payload : 'a;
  seq : int;
  mutable passes : int;
}

type 'a t = {
  mutable depth : int;
  mutable policy : Scheduler.policy;
  mutable coalesce : bool;
  mutable next_tag : int;
  mutable next_seq : int;
  arrival : 'a item Queue.t;
  mutable window : 'a item list;  (* submission order *)
  mutable sweep : 'a item list;  (* frozen subset of the window being served *)
}

let create ?(depth = max_int) ?(policy = Scheduler.Fcfs) ?(coalesce = false) () =
  {
    depth;
    policy;
    coalesce;
    next_tag = 1;
    next_seq = 0;
    arrival = Queue.create ();
    window = [];
    sweep = [];
  }

let set_depth t d = t.depth <- d
let set_policy t p = t.policy <- p
let set_coalesce t c = t.coalesce <- c
let pending t = Queue.length t.arrival + List.length t.window
let is_empty t = Queue.is_empty t.arrival && t.window = []

let submit t req payload =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Queue.add { tag; req; payload; seq = t.next_seq; passes = 0 } t.arrival;
  t.next_seq <- t.next_seq + 1;
  tag

let refill t =
  let win = ref (List.length t.window) in
  let add = ref [] in
  while !win < t.depth && not (Queue.is_empty t.arrival) do
    add := Queue.pop t.arrival :: !add;
    incr win
  done;
  if !add <> [] then t.window <- t.window @ List.rev !add

(* [a] must be dispatched before [b]: earlier submission, overlapping
   ranges, and at least one of the two is a write. *)
let must_precede a b =
  a.seq < b.seq
  && (a.req.Request.kind = Request.Write || b.req.Request.kind = Request.Write)
  && Request.overlaps a.req b.req

let blocked t it = List.exists (fun other -> must_precede other it) t.window

let cyl_of geom lba =
  match geom with Some g -> Geometry.cyl_of_lba g lba | None -> lba

let pick_min f items =
  List.fold_left
    (fun acc it ->
      match acc with Some best when f best <= f it -> acc | _ -> Some it)
    None items

let choose t ~geom ~current_cyl eligible =
  match t.policy with
  | Scheduler.Fcfs -> Option.get (pick_min (fun it -> it.seq) eligible)
  | Scheduler.Clook -> (
      let ahead =
        List.filter
          (fun it -> cyl_of geom it.req.Request.lba >= current_cyl)
          eligible
      in
      let key it = (it.req.Request.lba, it.seq) in
      match pick_min key ahead with
      | Some it -> it
      | None -> Option.get (pick_min key eligible))
  | Scheduler.Sstf ->
      let key it =
        (abs (cyl_of geom it.req.Request.lba - current_cyl), it.seq)
      in
      Option.get (pick_min key eligible)

(* One pass after another over the eligible entries in submission order,
   absorbing same-kind entries adjacent to the group's growing range,
   until a pass absorbs nothing. *)
let absorb eligible chosen =
  let kind = chosen.req.Request.kind in
  let group = ref [ chosen ] in
  let lo = ref chosen.req.Request.lba in
  let hi = ref (chosen.req.Request.lba + chosen.req.Request.sectors) in
  let in_group it = List.memq it !group in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun it ->
        let r = it.req in
        if
          (not (in_group it))
          && r.Request.kind = kind
          && (r.Request.lba + r.Request.sectors = !lo || r.Request.lba = !hi)
        then begin
          group := it :: !group;
          lo := min !lo r.Request.lba;
          hi := max !hi (r.Request.lba + r.Request.sectors);
          progress := true
        end)
      eligible
  done;
  List.sort (fun a b -> compare a.req.Request.lba b.req.Request.lba) !group

let take t ~geom ~current_cyl =
  refill t;
  match t.window with
  | [] -> None
  | window ->
      if t.sweep = [] then t.sweep <- window;
      let eligible = List.filter (fun it -> not (blocked t it)) window in
      let in_sweep = List.filter (fun it -> List.memq it t.sweep) eligible in
      let chosen = choose t ~geom ~current_cyl in_sweep in
      let group = if t.coalesce then absorb eligible chosen else [ chosen ] in
      t.window <- List.filter (fun it -> not (List.memq it group)) t.window;
      t.sweep <- List.filter (fun it -> not (List.memq it group)) t.sweep;
      List.iter (fun it -> it.passes <- it.passes + 1) t.window;
      refill t;
      Some group

let clear t =
  let rest = t.window @ List.of_seq (Queue.to_seq t.arrival) in
  t.window <- [];
  t.sweep <- [];
  Queue.clear t.arrival;
  List.sort (fun a b -> compare a.seq b.seq) rest
