type t = { a : float; b : float; c : float; cylinders : int }

(* Fit t(d) = a*sqrt(d-1) + b*(d-1) + c through
   (1, single), (max/3, avg), (max, full).  Two linear equations in a, b. *)
let of_profile (p : Profile.t) =
  let ms = Cffs_util.Units.ms in
  let c = ms p.single_cyl_seek_ms in
  let dmax = float_of_int (p.cylinders - 1) in
  let d_avg = dmax /. 3.0 in
  let x1 = sqrt (d_avg -. 1.0) and z1 = d_avg -. 1.0 in
  let x2 = sqrt (dmax -. 1.0) and z2 = dmax -. 1.0 in
  let y1 = ms p.avg_seek_ms -. c in
  let y2 = ms p.max_seek_ms -. c in
  (* Solve a*x1 + b*z1 = y1 ; a*x2 + b*z2 = y2. *)
  let det = (x1 *. z2) -. (x2 *. z1) in
  let a, b =
    if Float.abs det < 1e-12 then (y2 /. x2, 0.0)
    else begin
      let a = ((y1 *. z2) -. (y2 *. z1)) /. det in
      let b = ((x1 *. y2) -. (x2 *. y1)) /. det in
      if a < 0.0 || b < 0.0 then
        (* Degenerate profile: fall back to pure square-root curve through the
           full-stroke point. *)
        (y2 /. x2, 0.0)
      else (a, b)
    end
  in
  { a; b; c; cylinders = p.cylinders }

let time_into t d (c : Cffs_obs.Registry.cell) =
  c.v <-
    (if d <= 0 then 0.0
     else begin
       let df = float_of_int d -. 1.0 in
       (t.a *. sqrt df) +. (t.b *. df) +. t.c
     end)

let time t d =
  let c = { Cffs_obs.Registry.v = 0.0 } in
  time_into t d c;
  c.v

let average t ~samples =
  let prng = Cffs_util.Prng.create 0x5eed in
  let acc = ref 0.0 in
  for _ = 1 to samples do
    let c1 = Cffs_util.Prng.int prng t.cylinders in
    let c2 = Cffs_util.Prng.int prng t.cylinders in
    acc := !acc +. time t (abs (c1 - c2))
  done;
  !acc /. float_of_int samples
