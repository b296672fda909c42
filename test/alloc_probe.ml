(* Allocation guards for the per-request and per-call host paths.  A
   float passed to or returned from a function of another module is
   boxed, and so is a float stored into a mutable field of a mixed
   record; the guards keep those boxes, and the options, tuples and
   closures a call could build, off the paths a simulated request and a
   file-system call take.  The counts are deterministic: nothing on the
   paths depends on host state. *)

(* Minor-heap words one call of [f] allocates, averaged over [n] calls
   after one warm-up call.  The result is kept behind
   [Sys.opaque_identity], so a call the compiler could see is unused
   still builds it. *)
let words_per_call ?(n = 1000) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let at_most what bound words =
  if words > bound then Alcotest.failf "%s: %.1f words per call, at most %.0f" what words bound
