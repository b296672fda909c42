(** Request scheduling policies.

    The paper's disk driver "supports scatter/gather I/O and uses a C-LOOK
    scheduling algorithm [Worthington94]".  C-LOOK is the default; FCFS and
    SSTF are provided for the scheduling ablation. *)

type policy = Fcfs | Clook | Sstf

val policy_name : policy -> string
val policy_of_string : string -> policy option
(** Case-insensitive: [fcfs] (or [fifo]), [clook] (or [c-look]), [sstf]. *)
