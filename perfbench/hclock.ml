(* The host clock: CLOCK_MONOTONIC in nanoseconds, read through the
   monotonic-clock stub Bechamel links in.  Declared here with an unboxed
   result so a timing read allocates nothing and leaves the measured
   allocation count to the program under test. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_float (now_ns ()) *. 1e-9
