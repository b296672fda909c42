(* Tagged command queue: the sliding-window request model behind the
   asynchronous I/O pipeline.

   Submissions enter an unbounded arrival FIFO and are promoted, still in
   FIFO order, into a window of at most [depth] in-flight (tagged)
   requests — the drive only ever sees, and may only reorder, the window.
   [take] picks the next request to service according to the scheduling
   policy and optionally coalesces physically adjacent same-kind window
   entries into a single dispatch group.

   Two guarantees temper the reordering:

   - Overlap order: a request is never dispatched before an
     earlier-submitted request whose range overlaps it when either of the
     two is a write.  Reads against reads commute; anything involving a
     write does not.

   - Bounded starvation: scheduling is sweep-based (FSCAN / N-step SCAN).
     When no sweep is active the current window is frozen as the sweep
     set and served to completion in policy order; requests promoted into
     the window afterwards wait for the next sweep.  However adversarial
     the arrival pattern, a window entry is dispatched within the
     remainder of the current sweep plus one full sweep — at most
     [2 * depth] window passes.

   Cost, for a window of W entries: [submit] is O(1); promotion into the
   window is O(log W) plus its overlap conflicts; [take] is O(log W) per
   dispatched entry plus the conflicts it releases (SSTF also scans the
   entries on the one or two nearest cylinders); [clear] is O(W).  The
   indexes below exist only to find, in that time, the entry the plain
   definition picks:

   - Overlap order is kept as dependency counts.  An entry entering the
     window is the newest, so its blockers are exactly the overlapping
     window entries at that moment (a write against anything, a read
     against writes).  It counts them and each keeps it on a dependents
     list; dispatching a blocker decrements the count, and the entry is
     eligible at 0.  The overlap query scans an lba-ordered index per
     length class c (lengths in [2^c, 2^(c+1))) from lba - 2^(c+1), so it
     visits the overlapping entries plus a few neighbours per class.

   - Sweep membership is a generation stamp.  Every entry promoted while
     sweep g is active — or after it ran out — belongs to sweep g + 1,
     since the next freeze takes the whole window; freezing is bumping g.
     Eligible entries sit in one lba-ordered set per sweep, from which
     the policies pick (the oldest sweep member is the oldest window
     entry, and is never blocked).

   - Coalescing walks the eligible entries in submission order, absorbing
     those that start at the group's end or end at its start, and
     restarts while a walk absorbed anything.  Each step is the
     lowest-seq eligible entry past the walk position that starts at [hi]
     or ends at [lo], found in lba- and end-ordered sets of the eligible
     entries of each kind (kept only while coalescing is on).

   - [passes] is the number of dispatches an entry sat through in the
     window, so it is set when the entry leaves, from the dispatch count
     at its promotion. *)

type tag = int

type 'a item = {
  tag : tag;
  req : Request.t;
  payload : 'a;
  seq : int;
  submitted_at : float;
  mutable passes : int;
}

(* Ordered sets of window entries: mutable treaps (priority given by the
   caller).  Adding an element allocates one cell; removing and
   searching allocate nothing.  (Stdlib's persistent [Map] copies a path
   on every update, which at shallow queue depths allocated more per
   request than the list scans it replaces.) *)
module Oset = struct
  type 'a tree =
    | Leaf
    | Node of { v : 'a; pri : int; mutable l : 'a tree; mutable r : 'a tree }

  type 'a t = { cmp : 'a -> 'a -> int; mutable root : 'a tree }

  let create cmp = { cmp; root = Leaf }
  let is_empty s = match s.root with Leaf -> true | Node _ -> false
  let clear s = s.root <- Leaf

  let rec ins cmp x pri t =
    match t with
    | Leaf -> Node { v = x; pri; l = Leaf; r = Leaf }
    | Node n ->
        if cmp x n.v < 0 then begin
          match ins cmp x pri n.l with
          | Node m as l when m.pri > n.pri ->
              n.l <- m.r;
              m.r <- t;
              l
          | l ->
              n.l <- l;
              t
        end
        else begin
          match ins cmp x pri n.r with
          | Node m as r when m.pri > n.pri ->
              n.r <- m.l;
              m.l <- t;
              r
          | r ->
              n.r <- r;
              t
        end

  let add s x pri = s.root <- ins s.cmp x pri s.root

  let rec merge a b =
    match (a, b) with
    | Leaf, t | t, Leaf -> t
    | Node x, Node y ->
        if x.pri > y.pri then begin
          x.r <- merge x.r b;
          a
        end
        else begin
          y.l <- merge a y.l;
          b
        end

  let rec del cmp x t =
    match t with
    | Leaf -> Leaf
    | Node n ->
        let c = cmp x n.v in
        if c = 0 then merge n.l n.r
        else begin
          if c < 0 then n.l <- del cmp x n.l else n.r <- del cmp x n.r;
          t
        end

  let remove s x = s.root <- del s.cmp x s.root

  (* The searches below return the cell holding the element ([Leaf] for
     none) and take a [key] that must be monotone along the order, so
     they allocate nothing: no option, no predicate closure. *)

  (* The least element whose [key] is at least [x]. *)
  let rec first_ge key (x : int) acc = function
    | Leaf -> acc
    | Node n as t -> if key n.v >= x then first_ge key x t n.l else first_ge key x acc n.r

  (* The greatest element whose [key] is below [x]. *)
  let rec last_lt key (x : int) acc = function
    | Leaf -> acc
    | Node n as t -> if key n.v < x then last_lt key x t n.r else last_lt key x acc n.l
end

(* A window entry with its place in the indexes. *)
type 'a node = {
  item : 'a item;
  sweep : int;  (* generation of the sweep it belongs to *)
  promoted : int;  (* dispatch count when it entered the window *)
  mutable deps : int;  (* undispatched overlapping window predecessors *)
  mutable dependents : 'a node list;  (* entries counting this one *)
  mutable older : 'a node option;  (* window neighbours, submission order *)
  mutable newer : 'a node option;
}

let lba n = n.item.req.Request.lba
let end_of n = n.item.req.Request.lba + n.item.req.Request.sectors
let seq n = n.item.seq
(* Treap priority: a multiplicative hash of seq, so the shape does not
   follow the order entries arrive in. *)
let pri n =
  let h = n.item.seq * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Orders on the window: (lba, seq) and (end, seq), unique since seq is. *)
let by_lba a b = match Int.compare (lba a) (lba b) with 0 -> Int.compare (seq a) (seq b) | c -> c
let by_end a b = match Int.compare (end_of a) (end_of b) with 0 -> Int.compare (seq a) (seq b) | c -> c

(* Number of length classes: lengths up to [max_int] have class <= 61. *)
let classes = Sys.int_size - 1

(* The window entries of one request kind. *)
type 'a side = {
  spans : 'a node Oset.t array;  (* by length class, in (lba, seq) order *)
  mutable used : int;  (* bitmask of the nonempty [spans] *)
  starts : 'a node Oset.t;  (* eligible, by (lba, seq); coalescing only *)
  ends : 'a node Oset.t;  (* eligible, by (end, seq); coalescing only *)
}

type 'a t = {
  mutable depth : int;
  mutable policy : Scheduler.policy;
  mutable coalesce : bool;
  mutable next_tag : int;
  mutable next_seq : int;
  arrival : 'a item Queue.t;
  mutable oldest : 'a node option;  (* the window, as a doubly linked list *)
  mutable newest : 'a node option;
  mutable live : int;  (* window size *)
  mutable dispatches : int;
  mutable gen : int;  (* the current sweep *)
  mutable sweep_left : int;  (* its members still in the window *)
  mutable ready : 'a node Oset.t;  (* its eligible members, by (lba, seq) *)
  mutable ready_next : 'a node Oset.t;  (* eligible members of sweep gen + 1 *)
  reads : 'a side;
  writes : 'a side;
  depth_sample : Cffs_obs.Registry.cell;  (* [pending] at a take, for [h_depth] *)
}

let m_submitted = Cffs_obs.Registry.counter "ioqueue.submitted"
let m_dispatched = Cffs_obs.Registry.counter "ioqueue.dispatched"
let m_coalesced = Cffs_obs.Registry.counter "ioqueue.coalesced"
let m_sweeps = Cffs_obs.Registry.counter "ioqueue.sweeps"
let g_pending = Cffs_obs.Registry.gcell (Cffs_obs.Registry.gauge "ioqueue.pending")
let h_depth = Cffs_obs.Registry.histogram "ioqueue.depth"

let new_side () =
  {
    spans = Array.init classes (fun _ -> Oset.create by_lba);
    used = 0;
    starts = Oset.create by_lba;
    ends = Oset.create by_end;
  }

let create ?(depth = max_int) ?(policy = Scheduler.Fcfs) ?(coalesce = false) () =
  if depth < 1 then invalid_arg "Ioqueue.create: depth";
  {
    depth;
    policy;
    coalesce;
    next_tag = 1;
    next_seq = 0;
    arrival = Queue.create ();
    oldest = None;
    newest = None;
    live = 0;
    dispatches = 0;
    gen = 0;
    sweep_left = 0;
    ready = Oset.create by_lba;
    ready_next = Oset.create by_lba;
    reads = new_side ();
    writes = new_side ();
    depth_sample = { Cffs_obs.Registry.v = 0.0 };
  }

let depth t = t.depth
let policy t = t.policy
let coalesce t = t.coalesce
let set_depth t d = if d < 1 then invalid_arg "Ioqueue.set_depth" else t.depth <- d
let set_policy t p = t.policy <- p
let pending t = Queue.length t.arrival + t.live
let is_empty t = t.live = 0 && Queue.is_empty t.arrival

let side t n =
  match n.item.req.Request.kind with Request.Read -> t.reads | Request.Write -> t.writes

(* --- eligibility ---------------------------------------------------- *)

let index_adjacent t n =
  let s = side t n and p = pri n in
  Oset.add s.starts n p;
  Oset.add s.ends n p

let set_coalesce t c =
  if c <> t.coalesce then begin
    t.coalesce <- c;
    List.iter
      (fun s ->
        Oset.clear s.starts;
        Oset.clear s.ends)
      [ t.reads; t.writes ];
    if c then begin
      let rec index = function
        | None -> ()
        | Some n ->
            if n.deps = 0 then index_adjacent t n;
            index n.newer
      in
      index t.oldest
    end
  end

let make_ready t n =
  Oset.add (if n.sweep = t.gen then t.ready else t.ready_next) n (pri n);
  if t.coalesce then index_adjacent t n

let unready t n =
  Oset.remove (if n.sweep = t.gen then t.ready else t.ready_next) n;
  if t.coalesce then begin
    let s = side t n in
    Oset.remove s.starts n;
    Oset.remove s.ends n
  end

(* --- the window ----------------------------------------------------- *)

let len_class sectors =
  let rec go c n = if n <= 1 then c else go (c + 1) (n lsr 1) in
  go 0 sectors

let block n b =
  if Request.overlaps b.item.req n.item.req then begin
    n.deps <- n.deps + 1;
    b.dependents <- n :: b.dependents
  end

(* [block n] on each entry of a span tree whose lba is in [from, last],
   in order. *)
let rec block_range n from last = function
  | Oset.Leaf -> ()
  | Oset.Node c ->
      let g = lba c.v >= from and l = lba c.v <= last in
      if g then block_range n from last c.l;
      if g && l then block n c.v;
      if l then block_range n from last c.r

(* Count [n]'s blockers among the entries of [s]: every one overlapping
   it.  [used] holds the classes from [c] up that have entries.  An entry
   of class c is shorter than 2^(c+1), so only those from lba - 2^(c+1) + 2
   on can reach [n]. *)
let rec count_blockers s n c used =
  if used <> 0 then begin
    if used land 1 <> 0 then begin
      let r = n.item.req in
      let from = r.Request.lba - ((2 lsl c) - 1) + 1 and last = Request.last_lba r in
      block_range n from last s.spans.(c).Oset.root
    end;
    count_blockers s n (c + 1) (used lsr 1)
  end

let promote t item =
  let n =
    {
      item;
      sweep = t.gen + 1;
      promoted = t.dispatches;
      deps = 0;
      dependents = [];
      older = t.newest;
      newer = None;
    }
  in
  let r = item.req in
  if r.Request.kind = Request.Write then count_blockers t.reads n 0 t.reads.used;
  count_blockers t.writes n 0 t.writes.used;
  let s = side t n and c = len_class r.Request.sectors in
  Oset.add s.spans.(c) n (pri n);
  s.used <- s.used lor (1 lsl c);
  let link = Some n in
  (match t.newest with Some o -> o.newer <- link | None -> t.oldest <- link);
  t.newest <- link;
  t.live <- t.live + 1;
  if n.deps = 0 then make_ready t n

let refill t =
  while t.live < t.depth && not (Queue.is_empty t.arrival) do
    promote t (Queue.pop t.arrival)
  done

(* [n] leaves the window (it is already out of the eligible sets). *)
let leave t n =
  let s = side t n and c = len_class n.item.req.Request.sectors in
  Oset.remove s.spans.(c) n;
  if Oset.is_empty s.spans.(c) then s.used <- s.used land lnot (1 lsl c);
  (match n.older with Some o -> o.newer <- n.newer | None -> t.oldest <- n.newer);
  (match n.newer with Some o -> o.older <- n.older | None -> t.newest <- n.older);
  t.live <- t.live - 1;
  if n.sweep = t.gen then t.sweep_left <- t.sweep_left - 1;
  n.item.passes <- t.dispatches - n.promoted

let rec release_all t = function
  | [] -> ()
  | d :: rest ->
      d.deps <- d.deps - 1;
      if d.deps = 0 then make_ready t d;
      release_all t rest

let release t n = release_all t n.dependents

let submit t req payload ~now =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let item =
    { tag; req; payload; seq = t.next_seq; submitted_at = now; passes = 0 }
  in
  t.next_seq <- t.next_seq + 1;
  Queue.add item t.arrival;
  Cffs_obs.Registry.incr m_submitted;
  g_pending.v <- float_of_int (pending t);
  tag

(* --- choosing ------------------------------------------------------- *)

(* The first lba of cylinder [c] ([min_int] before the first cylinder,
   [max_int] past the last); with no geometry (a memory device) a
   cylinder is an lba, which degrades C-LOOK to an ascending-lba
   elevator.  Cylinders grow with lba, so a cylinder bound on the
   lba-ordered sets is this lba bound. *)
let lba_of_cyl geom c =
  match geom with
  | None -> c
  | Some g ->
      if c < 0 then min_int
      else if c >= Geometry.cylinders g then max_int
      else Geometry.first_lba_of_cyl g c

let cyl_of geom lba =
  match geom with Some g -> Geometry.cyl_of_lba g lba | None -> lba

let dist geom current_cyl = function
  | Oset.Leaf -> max_int
  | Oset.Node c -> abs (cyl_of geom (lba c.v) - current_cyl)

(* The lowest-seq entry of a ready tree with lba in [lo, hi), or [best]. *)
let rec lowest lo hi best = function
  | Oset.Leaf -> best
  | Oset.Node c as cell ->
      let g = lba c.v >= lo and l = lba c.v < hi in
      let best = if g then lowest lo hi best c.l else best in
      let best =
        match best with
        | Oset.Node b when (not (g && l)) || seq b.v < seq c.v -> best
        | Oset.Node _ -> cell
        | Oset.Leaf -> if g && l then cell else best
      in
      if l then lowest lo hi best c.r else best

(* The lowest-seq entry of the ready entries on [side]'s cylinder. *)
let lowest_on t geom best side =
  match side with
  | Oset.Leaf -> best
  | Oset.Node c ->
      let cyl = cyl_of geom (lba c.v) in
      lowest (lba_of_cyl geom cyl) (lba_of_cyl geom (cyl + 1)) best t.ready.Oset.root

(* The ready entry minimising (cylinder distance, seq): the nearest
   cylinder on either side, ties to the lowest seq on both. *)
let nearest t ~geom ~current_cyl =
  let bound = lba_of_cyl geom current_cyl and root = t.ready.Oset.root in
  let right = Oset.first_ge lba bound Oset.Leaf root in
  let left = Oset.last_lt lba bound Oset.Leaf root in
  let dl = dist geom current_cyl left and dr = dist geom current_cyl right in
  let d = Int.min dl dr in
  let best = if dl = d then lowest_on t geom Oset.Leaf left else Oset.Leaf in
  let best = if dr = d then lowest_on t geom best right else best in
  match best with Oset.Node c -> c.v | Oset.Leaf -> assert false

(* The sweep's oldest member is the window's oldest entry: everything
   promoted later joins the next sweep.  It is never blocked, since all
   its blockers would be older still. *)
let choose t ~geom ~current_cyl =
  match t.policy with
  | Scheduler.Fcfs -> Option.get t.oldest
  | Scheduler.Clook -> (
      let root = t.ready.Oset.root in
      match Oset.first_ge lba (lba_of_cyl geom current_cyl) Oset.Leaf root with
      | Oset.Node c -> c.v
      | Oset.Leaf -> (
          match Oset.first_ge lba min_int Oset.Leaf root with
          | Oset.Node c -> c.v
          | Oset.Leaf -> assert false))
  | Scheduler.Sstf -> nearest t ~geom ~current_cyl

(* The first entry in (key, seq) order beyond (x, pos): the lowest-seq
   entry past [pos] whose [key] is [x], if its key is [x].  It runs on
   every coalescing step, so it walks the treap itself rather than
   allocate a predicate. *)
let rec after key (x : int) pos acc = function
  | Oset.Leaf -> acc
  | Oset.Node c as cell ->
      let k = key c.v in
      if k > x || (k = x && seq c.v > pos) then after key x pos cell c.l
      else after key x pos acc c.r

(* One coalescing walk from [pos] on: absorb the next entry of the walk
   and go on past it; at the end, walk again if this walk absorbed
   anything.  Returns the group. *)
let rec walk t s pos absorbed lo hi group =
  let a = after lba hi pos Oset.Leaf s.starts.Oset.root
  and b = after end_of lo pos Oset.Leaf s.ends.Oset.root in
  let next =
    match (a, b) with
    | Oset.Node x, Oset.Node y when lba x.v = hi && end_of y.v = lo ->
        if seq x.v < seq y.v then a else b
    | Oset.Node x, _ when lba x.v = hi -> a
    | _, Oset.Node y when end_of y.v = lo -> b
    | _ -> Oset.Leaf
  in
  match next with
  | Oset.Node { v = n; _ } ->
      unready t n;
      Cffs_obs.Registry.incr m_coalesced;
      walk t s (seq n) true (Int.min lo (lba n)) (Int.max hi (end_of n)) (n :: group)
  | Oset.Leaf -> if absorbed then walk t s (-1) false lo hi group else group

(* Grow a dispatch group from [chosen] by absorbing eligible window
   entries physically adjacent to the group's range, same kind only, so
   the merged range is one contiguous request.  Only window (tagged)
   entries are visible for merging — arrivals beyond the window are not.
   Walks go in submission order with the range growing as they go. *)
let absorb t chosen =
  walk t (side t chosen) (-1) false (lba chosen) (end_of chosen) [ chosen ]
  |> List.sort (fun a b -> Int.compare (lba a) (lba b))

let rec leave_all t = function
  | [] -> ()
  | n :: rest ->
      leave t n;
      leave_all t rest

let rec release_group t = function
  | [] -> ()
  | n :: rest ->
      release t n;
      release_group t rest

let take t ~geom ~current_cyl =
  refill t;
  if t.live = 0 then None
  else begin
    t.depth_sample.v <- float_of_int (pending t);
    Cffs_obs.Registry.observe_cell h_depth t.depth_sample;
    (* Freeze a new sweep from the whole current window when the
       previous one is exhausted.  The sweep is served to completion in
       policy order; later window entries wait for the next sweep —
       this is what bounds starvation under continuous arrivals. *)
    if t.sweep_left = 0 then begin
      let spent = t.ready in
      t.gen <- t.gen + 1;
      t.sweep_left <- t.live;
      t.ready <- t.ready_next;
      t.ready_next <- spent;
      Cffs_obs.Registry.incr m_sweeps
    end;
    let chosen = choose t ~geom ~current_cyl in
    unready t chosen;
    let items =
      if t.coalesce then begin
        (* Coalescing may absorb eligible entries outside the sweep:
           riding along on an adjacent transfer delays nobody. *)
        let group = absorb t chosen in
        leave_all t group;
        (* Blockers released only now: eligibility is as of the pick. *)
        release_group t group;
        List.map (fun n -> n.item) group
      end
      else begin
        leave t chosen;
        release t chosen;
        [ chosen.item ]
      end
    in
    t.dispatches <- t.dispatches + 1;
    Cffs_obs.Registry.incr m_dispatched;
    g_pending.v <- float_of_int (pending t);
    refill t;
    Some items
  end

let clear t =
  let rec collect acc = function
    | None -> acc
    | Some n ->
        n.item.passes <- t.dispatches - n.promoted;
        collect (n.item :: acc) n.older
  in
  let rest = collect (List.of_seq (Queue.to_seq t.arrival)) t.newest in
  t.oldest <- None;
  t.newest <- None;
  t.live <- 0;
  t.sweep_left <- 0;
  Oset.clear t.ready;
  Oset.clear t.ready_next;
  List.iter
    (fun s ->
      Array.iter Oset.clear s.spans;
      s.used <- 0;
      Oset.clear s.starts;
      Oset.clear s.ends)
    [ t.reads; t.writes ];
  Queue.clear t.arrival;
  g_pending.v <- 0.0;
  rest
