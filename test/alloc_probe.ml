(* Allocation guards for the per-request host path.  A float passed to or
   returned from a function of another module is boxed, and so is a float
   stored into a mutable field of a mixed record; the guards below keep
   those boxes off the path a simulated request takes.  The counts are
   deterministic: nothing on the path depends on host state. *)

(* Minor-heap words one call of [f] allocates, averaged over [n] calls
   after one warm-up call. *)
let words_per_call ?(n = 1000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let at_most what bound words =
  if words > bound then Alcotest.failf "%s: %.1f words per call, at most %.0f" what words bound
