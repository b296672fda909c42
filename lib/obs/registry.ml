module Tablefmt = Cffs_util.Tablefmt

(* Histogram geometry: bucket 0 holds samples below [bucket_lo]; bucket i
   (i >= 1) holds [bucket_lo * 2^(i-1), bucket_lo * 2^i).  With a 1 us
   floor and 64 buckets the top bucket starts above 10^12 s, so nothing a
   simulated disk produces ever overflows. *)
let n_buckets = 64
let bucket_lo = 1e-6

let[@inline] bucket_of x =
  if x < bucket_lo then 0
  else
    let i = 1 + int_of_float (Float.log2 (x /. bucket_lo)) in
    if i >= n_buckets then n_buckets - 1 else i

let bucket_bounds i =
  if i = 0 then (0.0, bucket_lo)
  else (bucket_lo *. (2.0 ** float_of_int (i - 1)), bucket_lo *. (2.0 ** float_of_int i))

type counter = { c_name : string; mutable c_v : int }

(* Float state lives only in float-only records, which OCaml stores
   unboxed: writing one allocates nothing, where a mutable float field of
   a mixed record boxes every value stored into it. *)
type cell = { mutable v : float }
type fcounter = { f_name : string; f : cell }
type gauge = { g_name : string; g : cell }
type hfloats = { mutable sum : float; mutable lo : float; mutable hi : float }

type histogram = {
  h_name : string;
  mutable h_count : int;
  h_f : hfloats;
  h_buckets : int array;
}

type metric =
  | M_counter of counter
  | M_fcounter of fcounter
  | M_gauge of gauge
  | M_histogram of histogram

let metrics : (string, metric) Hashtbl.t = Hashtbl.create 64

let check_name name =
  if name = "" then invalid_arg "Registry: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> invalid_arg ("Registry: bad metric name " ^ name))
    name

let wrong_kind name =
  invalid_arg ("Registry: " ^ name ^ " already registered with another kind")

let counter name =
  match Hashtbl.find_opt metrics name with
  | Some (M_counter c) -> c
  | Some _ -> wrong_kind name
  | None ->
      check_name name;
      let c = { c_name = name; c_v = 0 } in
      Hashtbl.replace metrics name (M_counter c);
      c

let fcounter name =
  match Hashtbl.find_opt metrics name with
  | Some (M_fcounter f) -> f
  | Some _ -> wrong_kind name
  | None ->
      check_name name;
      let f = { f_name = name; f = { v = 0.0 } } in
      Hashtbl.replace metrics name (M_fcounter f);
      f

let gauge name =
  match Hashtbl.find_opt metrics name with
  | Some (M_gauge g) -> g
  | Some _ -> wrong_kind name
  | None ->
      check_name name;
      let g = { g_name = name; g = { v = 0.0 } } in
      Hashtbl.replace metrics name (M_gauge g);
      g

let histogram name =
  match Hashtbl.find_opt metrics name with
  | Some (M_histogram h) -> h
  | Some _ -> wrong_kind name
  | None ->
      check_name name;
      let h =
        {
          h_name = name;
          h_count = 0;
          h_f = { sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity };
          h_buckets = Array.make n_buckets 0;
        }
      in
      Hashtbl.replace metrics name (M_histogram h);
      h

let incr c = c.c_v <- c.c_v + 1
let add c n = c.c_v <- c.c_v + n
let fadd { f; _ } x = f.v <- f.v +. x
let set { g; _ } x = g.v <- x
let fcell f = f.f
let gcell g = g.g

(* The sample is read from a cell, not passed: a float argument of a
   call that is not inlined is boxed. *)
let observe_cell h c =
  let x = c.v in
  let x = if Float.is_nan x || x < 0.0 then 0.0 else x in
  let f = h.h_f in
  h.h_count <- h.h_count + 1;
  f.sum <- f.sum +. x;
  if x < f.lo then f.lo <- x;
  if x > f.hi then f.hi <- x;
  let i = bucket_of x in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let sample = { v = 0.0 }

let observe h x =
  sample.v <- x;
  observe_cell h sample

let counter_name c = c.c_name
let counter_value c = c.c_v
let fcounter_value f = f.f.v

(* --- Snapshots --- *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

type datum =
  | Counter of int
  | Fcounter of float
  | Gauge of float
  | Histogram of hist_snapshot

type snapshot = (string * datum) list

let snap_metric = function
  | M_counter c -> Counter c.c_v
  | M_fcounter f -> Fcounter f.f.v
  | M_gauge g -> Gauge g.g.v
  | M_histogram h ->
      Histogram
        {
          count = h.h_count;
          sum = h.h_f.sum;
          min = (if h.h_count = 0 then 0.0 else h.h_f.lo);
          max = (if h.h_count = 0 then 0.0 else h.h_f.hi);
          buckets = Array.copy h.h_buckets;
        }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, snap_metric m) :: acc) metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff now before =
  let prior name = List.assoc_opt name before in
  List.map
    (fun (name, d) ->
      let d' =
        match (d, prior name) with
        | Counter v, Some (Counter v0) -> Counter (v - v0)
        | Fcounter v, Some (Fcounter v0) -> Fcounter (v -. v0)
        | Histogram h, Some (Histogram h0) ->
            Histogram
              {
                count = h.count - h0.count;
                sum = h.sum -. h0.sum;
                (* min/max can't be subtracted; report the later window's
                   observed extremes, which is what a monitoring diff wants. *)
                min = (if h.count - h0.count = 0 then 0.0 else h.min);
                max = (if h.count - h0.count = 0 then 0.0 else h.max);
                buckets = Array.mapi (fun i c -> c - h0.buckets.(i)) h.buckets;
              }
        | d, _ -> d
      in
      (name, d'))
    now

let filter ~prefix snap =
  List.filter (fun (name, _) -> String.starts_with ~prefix name) snap

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> c.c_v <- 0
      | M_fcounter f -> f.f.v <- 0.0
      | M_gauge g -> g.g.v <- 0.0
      | M_histogram h ->
          h.h_count <- 0;
          h.h_f.sum <- 0.0;
          h.h_f.lo <- Float.infinity;
          h.h_f.hi <- Float.neg_infinity;
          Array.fill h.h_buckets 0 n_buckets 0)
    metrics

(* --- Snapshot accessors --- *)

let get_counter snap name =
  match List.assoc_opt name snap with Some (Counter v) -> v | _ -> 0

let get_fcounter snap name =
  match List.assoc_opt name snap with Some (Fcounter v) -> v | _ -> 0.0

let get_gauge snap name =
  match List.assoc_opt name snap with Some (Gauge v) -> v | _ -> 0.0

let get_histogram snap name =
  match List.assoc_opt name snap with Some (Histogram h) -> Some h | _ -> None

let hist_mean (h : hist_snapshot) =
  if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let hist_percentile (h : hist_snapshot) p =
  if h.count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let target = p /. 100.0 *. float_of_int h.count in
    let rec walk i seen =
      if i >= Array.length h.buckets then h.max
      else
        let c = h.buckets.(i) in
        if c > 0 && float_of_int (seen + c) >= target then begin
          let lo, hi = bucket_bounds i in
          let frac = (target -. float_of_int seen) /. float_of_int c in
          let v = lo +. (frac *. (hi -. lo)) in
          Float.max h.min (Float.min h.max v)
        end
        else walk (i + 1) (seen + c)
    in
    walk 0 0
  end

(* --- Exporters --- *)

let is_zero = function
  | Counter 0 -> true
  | Fcounter v | Gauge v -> v = 0.0
  | Histogram h -> h.count = 0
  | Counter _ -> false

let fmt_seconds x =
  if x = 0.0 then "0"
  else if Float.abs x < 1e-3 then Printf.sprintf "%.1f us" (x *. 1e6)
  else if Float.abs x < 1.0 then Printf.sprintf "%.3f ms" (x *. 1e3)
  else Printf.sprintf "%.3f s" x

let to_table ?title ?(drop_zero = true) snap =
  let t =
    Tablefmt.create ?title
      [ ("metric", Tablefmt.Left); ("value", Tablefmt.Right); ("detail", Tablefmt.Left) ]
  in
  List.iter
    (fun (name, d) ->
      if not (drop_zero && is_zero d) then
        match d with
        | Counter v -> Tablefmt.add_row t [ name; string_of_int v; "" ]
        | Fcounter v -> Tablefmt.add_row t [ name; fmt_seconds v; "" ]
        | Gauge v -> Tablefmt.add_row t [ name; Printf.sprintf "%g" v; "" ]
        | Histogram h ->
            Tablefmt.add_row t
              [
                name;
                string_of_int h.count;
                Printf.sprintf "mean %s  p50 %s  p95 %s  p99 %s  max %s"
                  (fmt_seconds (hist_mean h))
                  (fmt_seconds (hist_percentile h 50.0))
                  (fmt_seconds (hist_percentile h 95.0))
                  (fmt_seconds (hist_percentile h 99.0))
                  (fmt_seconds h.max);
              ])
    snap;
  t

let hist_to_json (h : hist_snapshot) =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum_s", Json.Float h.sum);
      ("min_s", Json.Float h.min);
      ("max_s", Json.Float h.max);
      ("mean_s", Json.Float (hist_mean h));
      ("p50_s", Json.Float (hist_percentile h 50.0));
      ("p95_s", Json.Float (hist_percentile h 95.0));
      ("p99_s", Json.Float (hist_percentile h 99.0));
    ]

let datum_to_json = function
  | Counter v -> Json.Int v
  | Fcounter v | Gauge v -> Json.Float v
  | Histogram h -> hist_to_json h

let to_json snap = Json.Obj (List.map (fun (n, d) -> (n, datum_to_json d)) snap)

let to_json_lines snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (n, d) ->
      Buffer.add_string buf
        (Json.to_string (Json.Obj [ ("metric", Json.String n); ("value", datum_to_json d) ]));
      Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf
