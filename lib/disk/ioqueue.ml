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
     at its promotion.

   - Nothing above allocates per request.  An entry is one record that
     carries its request, its links in the arrival FIFO and the window,
     its dependency count and its children in each ordered set; the
     owner of a dispatched or cleared record hands it back ([recycle])
     once its result is delivered, and the next submission reuses it.  A
     dispatch group is read from a buffer the queue keeps, not built as
     a list.

   - Links are slot numbers, not pointers.  A queued record holds a slot
     of the queue's arena until it leaves, and every link names a slot.
     A record outlives its requests, so it usually sits in the major
     heap, where a pointer store costs a write-barrier call (OCaml 5);
     an int store costs nothing, so a request costs a handful of barrier
     calls instead of one per link it touches. *)

type tag = int

(* A queued request and every link the queue keeps for it, in one record
   that outlives the request: [recycle] puts it on the queue's free list
   and the next [acquire] rewrites it, so a steady stream of requests
   allocates nothing here.  Links are slots ([nil] for none). *)
type 'a item = {
  mutable tag : tag;
  req : Request.t;
  mutable payload : 'a;
  mutable seq : int;
  submitted : Cffs_obs.Registry.cell;
  mutable passes : int;
  mutable slot : int;
  mutable sweep : int;
  mutable promoted : int;
  mutable deps : int;
  mutable dependents : int list;
  mutable older : int;
  mutable newer : int;
  mutable pri : int;
  mutable span_l : int;
  mutable span_r : int;
  mutable ready_l : int;
  mutable ready_r : int;
  mutable start_l : int;
  mutable start_r : int;
  mutable end_l : int;
  mutable end_r : int;
}

let nil = -1

(* The four roles an entry can hold at once, one set of each: a span
   set, a ready set, the starts and the ends.  Each role has its own
   pair of child links in the record. *)
let span_role = 0
let ready_role = 1
let starts_role = 2
let ends_role = 3

let left role n =
  match role with 0 -> n.span_l | 1 -> n.ready_l | 2 -> n.start_l | _ -> n.end_l
  [@@inline]

let right role n =
  match role with 0 -> n.span_r | 1 -> n.ready_r | 2 -> n.start_r | _ -> n.end_r
  [@@inline]

let set_left role n v =
  match role with
  | 0 -> n.span_l <- v
  | 1 -> n.ready_l <- v
  | 2 -> n.start_l <- v
  | _ -> n.end_l <- v
  [@@inline]

let set_right role n v =
  match role with
  | 0 -> n.span_r <- v
  | 1 -> n.ready_r <- v
  | 2 -> n.start_r <- v
  | _ -> n.end_r <- v
  [@@inline]

let lba n = n.req.Request.lba
let end_of n = n.req.Request.lba + n.req.Request.sectors
let seq n = n.seq

(* Orders on the window: (lba, seq) and (end, seq), unique since seq is. *)
let by_lba a b = match Int.compare (lba a) (lba b) with 0 -> Int.compare (seq a) (seq b) | c -> c
let by_end a b = match Int.compare (end_of a) (end_of b) with 0 -> Int.compare (seq a) (seq b) | c -> c

(* Ordered sets of window entries: treaps over the queue's arena [a],
   whose cells are the entries themselves, so adding, removing and
   searching allocate nothing.  The priority is the entry's [pri]. *)
module Oset = struct
  type t = { by_end : bool; role : int; mutable root : int }

  let create ~role ~by_end = { by_end; role; root = nil }
  let cmp s x n = if s.by_end then by_end x n else by_lba x n [@@inline]
  let is_empty s = s.root = nil
  let clear s = s.root <- nil

  let rec ins a s x t =
    if t = nil then begin
      set_left s.role x nil;
      set_right s.role x nil;
      x.slot
    end
    else begin
      let n = a.(t) in
      if cmp s x n < 0 then begin
        let l = ins a s x (left s.role n) in
        let m = a.(l) in
        if m.pri > n.pri then begin
          set_left s.role n (right s.role m);
          set_right s.role m t;
          l
        end
        else begin
          set_left s.role n l;
          t
        end
      end
      else begin
        let r = ins a s x (right s.role n) in
        let m = a.(r) in
        if m.pri > n.pri then begin
          set_right s.role n (left s.role m);
          set_left s.role m t;
          r
        end
        else begin
          set_right s.role n r;
          t
        end
      end
    end

  let add a s x = s.root <- ins a s x s.root

  let rec merge a s x y =
    if x = nil then y
    else if y = nil then x
    else begin
      let nx = a.(x) and ny = a.(y) in
      if nx.pri > ny.pri then begin
        set_right s.role nx (merge a s (right s.role nx) y);
        x
      end
      else begin
        set_left s.role ny (merge a s x (left s.role ny));
        y
      end
    end

  let rec del a s x t =
    if t = nil then nil
    else begin
      let n = a.(t) in
      let c = cmp s x n in
      if c = 0 then merge a s (left s.role n) (right s.role n)
      else begin
        if c < 0 then set_left s.role n (del a s x (left s.role n))
        else set_right s.role n (del a s x (right s.role n));
        t
      end
    end

  let remove a s x = s.root <- del a s x s.root

  (* The searches below return a slot ([nil] for none) and take a [key]
     that must be monotone along the order, so they allocate nothing:
     no option, no predicate closure. *)

  (* The least element whose [key] is at least [x]. *)
  let rec first_ge a s key (x : int) acc t =
    if t = nil then acc
    else begin
      let n = a.(t) in
      if key n >= x then first_ge a s key x t (left s.role n)
      else first_ge a s key x acc (right s.role n)
    end

  (* The greatest element whose [key] is below [x]. *)
  let rec last_lt a s key (x : int) acc t =
    if t = nil then acc
    else begin
      let n = a.(t) in
      if key n < x then last_lt a s key x t (right s.role n)
      else last_lt a s key x acc (left s.role n)
    end
end

(* Treap priority: a multiplicative hash of seq, so the shape does not
   follow the order entries arrive in. *)
let pri_of seq =
  let h = seq * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Number of length classes: lengths up to [max_int] have class <= 61. *)
let classes = Sys.int_size - 1

(* The window entries of one request kind. *)
type side = {
  spans : Oset.t array;  (* by length class, in (lba, seq) order *)
  mutable used : int;  (* bitmask of the nonempty [spans] *)
  starts : Oset.t;  (* eligible, by (lba, seq); coalescing only *)
  ends : Oset.t;  (* eligible, by (end, seq); coalescing only *)
}

(* Free records kept for reuse, per queue.  A batch deeper than this
   allocates its extra records and lets them go after completion, so the
   free list never pins more than a small constant. *)
let spare_cap = 64

type 'a t = {
  mutable depth : int;
  mutable policy : Scheduler.policy;
  mutable coalesce : bool;
  mutable next_tag : int;
  mutable next_seq : int;
  (* The queued records by slot.  Slot 0 is never handed out: it holds
     the first record this queue made, which a free slot holds instead
     of the record that left it, so the arena pins nothing else. *)
  mutable arena : 'a item array;
  mutable free_slots : int array;  (* a stack of the free slots *)
  mutable nfree : int;
  mutable first_arrival : int;  (* the arrival FIFO, linked by [newer] *)
  mutable last_arrival : int;
  mutable arrivals : int;
  mutable oldest : int;  (* the window, as a doubly linked list *)
  mutable newest : int;
  mutable live : int;  (* window size *)
  mutable dispatches : int;
  mutable gen : int;  (* the current sweep *)
  mutable sweep_left : int;  (* its members still in the window *)
  mutable ready : Oset.t;  (* its eligible members, by (lba, seq) *)
  mutable ready_next : Oset.t;  (* eligible members of sweep gen + 1 *)
  reads : side;
  writes : side;
  (* The slots of the last dispatch group, in lba order:
     [group.(g_lo .. g_hi - 1)].  Coalescing grows it at both ends from
     the middle.  Its records keep their slots until the next dispatch,
     so [dispatched] reads them until then. *)
  mutable group : int array;
  mutable g_lo : int;
  mutable g_hi : int;
  mutable spare : 'a item array;  (* the free list: [spare.(0 .. spares - 1)] *)
  mutable spares : int;
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
    spans = Array.init classes (fun _ -> Oset.create ~role:span_role ~by_end:false);
    used = 0;
    starts = Oset.create ~role:starts_role ~by_end:false;
    ends = Oset.create ~role:ends_role ~by_end:true;
  }

let create ?(depth = max_int) ?(policy = Scheduler.Fcfs) ?(coalesce = false) () =
  if depth < 1 then invalid_arg "Ioqueue.create: depth";
  {
    depth;
    policy;
    coalesce;
    next_tag = 1;
    next_seq = 0;
    arena = [||];
    free_slots = [||];
    nfree = 0;
    first_arrival = nil;
    last_arrival = nil;
    arrivals = 0;
    oldest = nil;
    newest = nil;
    live = 0;
    dispatches = 0;
    gen = 0;
    sweep_left = 0;
    ready = Oset.create ~role:ready_role ~by_end:false;
    ready_next = Oset.create ~role:ready_role ~by_end:false;
    reads = new_side ();
    writes = new_side ();
    group = [| nil |];
    g_lo = 0;
    g_hi = 0;
    spare = [||];
    spares = 0;
    depth_sample = { Cffs_obs.Registry.v = 0.0 };
  }

let depth t = t.depth
let policy t = t.policy
let coalesce t = t.coalesce
let set_depth t d = if d < 1 then invalid_arg "Ioqueue.set_depth" else t.depth <- d
let set_policy t p = t.policy <- p
let pending t = t.arrivals + t.live
let is_empty t = t.live = 0 && t.arrivals = 0

let side t n =
  match n.req.Request.kind with Request.Read -> t.reads | Request.Write -> t.writes

(* --- records and slots ---------------------------------------------- *)

let fresh payload =
  {
    tag = 0;
    req = { Request.lba = 0; sectors = 1; kind = Request.Read };
    payload;
    seq = 0;
    submitted = { Cffs_obs.Registry.v = 0.0 };
    passes = 0;
    slot = nil;
    sweep = 0;
    promoted = 0;
    deps = 0;
    dependents = [];
    older = nil;
    newer = nil;
    pri = 0;
    span_l = nil;
    span_r = nil;
    ready_l = nil;
    ready_r = nil;
    start_l = nil;
    start_r = nil;
    end_l = nil;
    end_r = nil;
  }

let pop_spare t =
  t.spares <- t.spares - 1;
  t.spare.(t.spares)

let acquire t make = if t.spares > 0 then pop_spare t else fresh (make ())

let recycle t it =
  if it.tag = 0 then invalid_arg "Ioqueue.recycle: record not in use";
  it.tag <- 0;
  (match it.dependents with [] -> () | _ -> it.dependents <- []);
  if t.spares < spare_cap then begin
    if Array.length t.spare = 0 then t.spare <- Array.make spare_cap it;
    t.spare.(t.spares) <- it;
    t.spares <- t.spares + 1
  end

(* Give [it] a slot of the arena, growing it (and the free-slot stack)
   by doubling. *)
let take_slot t it =
  if t.nfree = 0 then begin
    let n = Array.length t.arena in
    let filler = if n = 0 then it else t.arena.(0) in
    let grown = Int.max 16 (2 * n) in
    let arena = Array.make grown filler in
    Array.blit t.arena 0 arena 0 n;
    t.arena <- arena;
    t.free_slots <- Array.make grown nil;
    for s = grown - 1 downto Int.max n 1 do
      t.free_slots.(t.nfree) <- s;
      t.nfree <- t.nfree + 1
    done
  end;
  t.nfree <- t.nfree - 1;
  let s = t.free_slots.(t.nfree) in
  t.arena.(s) <- it;
  it.slot <- s

let free_slot t s =
  t.arena.(s) <- t.arena.(0);
  t.free_slots.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* --- eligibility ---------------------------------------------------- *)

let index_adjacent t n =
  let s = side t n in
  Oset.add t.arena s.starts n;
  Oset.add t.arena s.ends n

let set_coalesce t c =
  if c <> t.coalesce then begin
    t.coalesce <- c;
    List.iter
      (fun s ->
        Oset.clear s.starts;
        Oset.clear s.ends)
      [ t.reads; t.writes ];
    if c then begin
      let rec index i =
        if i <> nil then begin
          let n = t.arena.(i) in
          if n.deps = 0 then index_adjacent t n;
          index n.newer
        end
      in
      index t.oldest
    end
  end

let make_ready t n =
  Oset.add t.arena (if n.sweep = t.gen then t.ready else t.ready_next) n;
  if t.coalesce then index_adjacent t n

let unready t n =
  Oset.remove t.arena (if n.sweep = t.gen then t.ready else t.ready_next) n;
  if t.coalesce then begin
    let s = side t n in
    Oset.remove t.arena s.starts n;
    Oset.remove t.arena s.ends n
  end

(* --- the window ----------------------------------------------------- *)

let len_class sectors =
  let rec go c n = if n <= 1 then c else go (c + 1) (n lsr 1) in
  go 0 sectors

let block n b =
  if Request.overlaps b.req n.req then begin
    n.deps <- n.deps + 1;
    b.dependents <- n.slot :: b.dependents
  end

(* [block n] on each entry of a span tree whose lba is in [from, last],
   in order. *)
let rec block_range a role n from last i =
  if i <> nil then begin
    let c = a.(i) in
    let g = lba c >= from and l = lba c <= last in
    if g then block_range a role n from last (left role c);
    if g && l then block n c;
    if l then block_range a role n from last (right role c)
  end

(* Count [n]'s blockers among the entries of [s]: every one overlapping
   it.  [used] holds the classes from [c] up that have entries.  An entry
   of class c is shorter than 2^(c+1), so only those from lba - 2^(c+1) + 2
   on can reach [n]. *)
let rec count_blockers t s n c used =
  if used <> 0 then begin
    if used land 1 <> 0 then begin
      let r = n.req in
      let from = r.Request.lba - ((2 lsl c) - 1) + 1 and last = Request.last_lba r in
      block_range t.arena span_role n from last s.spans.(c).Oset.root
    end;
    count_blockers t s n (c + 1) (used lsr 1)
  end

let promote t n =
  n.sweep <- t.gen + 1;
  n.promoted <- t.dispatches;
  n.deps <- 0;
  (match n.dependents with [] -> () | _ -> n.dependents <- []);
  n.older <- t.newest;
  n.newer <- nil;
  let r = n.req in
  if r.Request.kind = Request.Write then count_blockers t t.reads n 0 t.reads.used;
  count_blockers t t.writes n 0 t.writes.used;
  let s = side t n and c = len_class r.Request.sectors in
  Oset.add t.arena s.spans.(c) n;
  s.used <- s.used lor (1 lsl c);
  if t.newest = nil then t.oldest <- n.slot else t.arena.(t.newest).newer <- n.slot;
  t.newest <- n.slot;
  t.live <- t.live + 1;
  if n.deps = 0 then make_ready t n

let refill t =
  while t.live < t.depth && t.arrivals > 0 do
    let n = t.arena.(t.first_arrival) in
    t.first_arrival <- n.newer;
    if n.newer = nil then t.last_arrival <- nil;
    t.arrivals <- t.arrivals - 1;
    promote t n
  done

(* [n] leaves the window (it is already out of the eligible sets). *)
let leave t n =
  let s = side t n and c = len_class n.req.Request.sectors in
  Oset.remove t.arena s.spans.(c) n;
  if Oset.is_empty s.spans.(c) then s.used <- s.used land lnot (1 lsl c);
  if n.older = nil then t.oldest <- n.newer else t.arena.(n.older).newer <- n.newer;
  if n.newer = nil then t.newest <- n.older else t.arena.(n.newer).older <- n.older;
  t.live <- t.live - 1;
  if n.sweep = t.gen then t.sweep_left <- t.sweep_left - 1;
  n.passes <- t.dispatches - n.promoted

let rec release_all t = function
  | [] -> ()
  | d :: rest ->
      let d = t.arena.(d) in
      d.deps <- d.deps - 1;
      if d.deps = 0 then make_ready t d;
      release_all t rest

let release t n = release_all t n.dependents

(* Queue record [it] for the request [kind, lba, sectors]: a slot, a
   new tag and seq, and the arrival FIFO's tail. *)
let start t it kind ~lba ~sectors =
  assert (sectors > 0);
  let r = it.req in
  r.Request.lba <- lba;
  r.Request.sectors <- sectors;
  r.Request.kind <- kind;
  it.tag <- t.next_tag;
  t.next_tag <- t.next_tag + 1;
  it.seq <- t.next_seq;
  it.pri <- pri_of t.next_seq;
  t.next_seq <- t.next_seq + 1;
  it.passes <- 0;
  take_slot t it;
  it.newer <- nil;
  if t.last_arrival = nil then t.first_arrival <- it.slot
  else t.arena.(t.last_arrival).newer <- it.slot;
  t.last_arrival <- it.slot;
  t.arrivals <- t.arrivals + 1;
  Cffs_obs.Registry.incr m_submitted;
  g_pending.v <- float_of_int (pending t)

let enqueue t it kind ~lba ~sectors ~now =
  it.submitted.v <- now.Cffs_obs.Registry.v;
  start t it kind ~lba ~sectors

let submit t (req : Request.t) payload ~now =
  let it = if t.spares > 0 then pop_spare t else fresh payload in
  it.payload <- payload;
  it.submitted.v <- now;
  start t it req.Request.kind ~lba:req.Request.lba ~sectors:req.Request.sectors;
  it.tag

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

let dist t geom current_cyl i =
  if i = nil then max_int else abs (cyl_of geom (lba t.arena.(i)) - current_cyl)

(* The lowest-seq entry of a ready tree with lba in [lo, hi), or [best]. *)
let rec lowest a lo hi best i =
  if i = nil then best
  else begin
    let c = a.(i) in
    let g = lba c >= lo and l = lba c < hi in
    let best = if g then lowest a lo hi best (left ready_role c) else best in
    let best =
      if not (g && l) then best else if best = nil || seq c < seq a.(best) then i else best
    in
    if l then lowest a lo hi best (right ready_role c) else best
  end

(* The lowest-seq entry of the ready entries on [side]'s cylinder. *)
let lowest_on t geom best side =
  if side = nil then best
  else begin
    let cyl = cyl_of geom (lba t.arena.(side)) in
    lowest t.arena (lba_of_cyl geom cyl) (lba_of_cyl geom (cyl + 1)) best t.ready.Oset.root
  end

(* The ready entry minimising (cylinder distance, seq): the nearest
   cylinder on either side, ties to the lowest seq on both. *)
let nearest t ~geom ~current_cyl =
  let bound = lba_of_cyl geom current_cyl and s = t.ready and a = t.arena in
  let right = Oset.first_ge a s lba bound nil s.Oset.root in
  let left = Oset.last_lt a s lba bound nil s.Oset.root in
  let dl = dist t geom current_cyl left and dr = dist t geom current_cyl right in
  let d = Int.min dl dr in
  let best = if dl = d then lowest_on t geom nil left else nil in
  let best = if dr = d then lowest_on t geom best right else best in
  a.(best)

(* The sweep's oldest member is the window's oldest entry: everything
   promoted later joins the next sweep.  It is never blocked, since all
   its blockers would be older still. *)
let choose t ~geom ~current_cyl =
  let a = t.arena in
  match t.policy with
  | Scheduler.Fcfs -> a.(t.oldest)
  | Scheduler.Clook ->
      let s = t.ready in
      let c = Oset.first_ge a s lba (lba_of_cyl geom current_cyl) nil s.Oset.root in
      a.(if c <> nil then c else Oset.first_ge a s lba min_int nil s.Oset.root)
  | Scheduler.Sstf -> nearest t ~geom ~current_cyl

(* The first entry in (key, seq) order beyond (x, pos): the lowest-seq
   entry past [pos] whose [key] is [x], if its key is [x].  It runs on
   every coalescing step, so it walks the treap itself rather than
   allocate a predicate. *)
let rec after a role key (x : int) pos acc i =
  if i = nil then acc
  else begin
    let c = a.(i) in
    let k = key c in
    if k > x || (k = x && seq c > pos) then after a role key x pos i (left role c)
    else after a role key x pos acc (right role c)
  end

(* One coalescing walk from [pos] on: absorb the next entry of the walk
   and go on past it; at the end, walk again if this walk absorbed
   anything.  An entry starting at the group's end joins the group's
   high end and one ending at its start the low end, so the group stays
   in lba order. *)
let rec walk t s pos absorbed lo hi =
  let a = t.arena in
  let x = after a starts_role lba hi pos nil s.starts.Oset.root
  and y = after a ends_role end_of lo pos nil s.ends.Oset.root in
  let x = if x <> nil && lba a.(x) = hi then x else nil
  and y = if y <> nil && end_of a.(y) = lo then y else nil in
  let next = if x = nil then y else if y = nil || seq a.(x) < seq a.(y) then x else y in
  if next <> nil then begin
    let n = a.(next) in
    unready t n;
    Cffs_obs.Registry.incr m_coalesced;
    if lba n = hi then begin
      t.group.(t.g_hi) <- next;
      t.g_hi <- t.g_hi + 1
    end
    else begin
      t.g_lo <- t.g_lo - 1;
      t.group.(t.g_lo) <- next
    end;
    walk t s (seq n) true (Int.min lo (lba n)) (Int.max hi (end_of n))
  end
  else if absorbed then walk t s (-1) false lo hi

(* Grow the dispatch group from [chosen] by absorbing eligible window
   entries physically adjacent to the group's range, same kind only, so
   the merged range is one contiguous request.  Only window (tagged)
   entries are visible for merging — arrivals beyond the window are not.
   Walks go in submission order with the range growing as they go.  A
   group holds at most the window, so [chosen] starts in the middle of a
   buffer of twice its size. *)
let absorb t chosen =
  let need = (2 * t.live) + 1 in
  if Array.length t.group < need then
    t.group <- Array.make (Int.max need (2 * Array.length t.group)) nil;
  t.g_lo <- t.live;
  t.g_hi <- t.live + 1;
  t.group.(t.g_lo) <- chosen.slot;
  walk t (side t chosen) (-1) false (lba chosen) (end_of chosen)

let dispatched t i = t.arena.(t.group.(t.g_lo + i))

(* The previous dispatch group gives its slots back. *)
let forget_group t =
  for i = t.g_lo to t.g_hi - 1 do
    free_slot t t.group.(i)
  done;
  t.g_lo <- 0;
  t.g_hi <- 0

let dispatch t ~geom ~current_cyl =
  forget_group t;
  refill t;
  if t.live = 0 then 0
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
    if t.coalesce then
      (* Coalescing may absorb eligible entries outside the sweep:
         riding along on an adjacent transfer delays nobody. *)
      absorb t chosen
    else begin
      t.group.(0) <- chosen.slot;
      t.g_hi <- 1
    end;
    let n = t.g_hi - t.g_lo in
    for i = 0 to n - 1 do
      leave t (dispatched t i)
    done;
    (* Blockers released only now: eligibility is as of the pick. *)
    for i = 0 to n - 1 do
      release t (dispatched t i)
    done;
    t.dispatches <- t.dispatches + 1;
    Cffs_obs.Registry.incr m_dispatched;
    g_pending.v <- float_of_int (pending t);
    refill t;
    n
  end

let rec group_items t i acc = if i < 0 then acc else group_items t (i - 1) (dispatched t i :: acc)

let take t ~geom ~current_cyl =
  let n = dispatch t ~geom ~current_cyl in
  if n = 0 then None else Some (group_items t (n - 1) [])

let clear t =
  forget_group t;
  let rec arrivals acc i =
    if i = nil then List.rev acc
    else begin
      let n = t.arena.(i) in
      arrivals (n :: acc) n.newer
    end
  in
  let rec collect acc i =
    if i = nil then acc
    else begin
      let n = t.arena.(i) in
      n.passes <- t.dispatches - n.promoted;
      collect (n :: acc) n.older
    end
  in
  let rest = collect (arrivals [] t.first_arrival) t.newest in
  List.iter (fun n -> free_slot t n.slot) rest;
  t.first_arrival <- nil;
  t.last_arrival <- nil;
  t.arrivals <- 0;
  t.oldest <- nil;
  t.newest <- nil;
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
  g_pending.v <- 0.0;
  rest
