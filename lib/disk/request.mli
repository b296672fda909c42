(** Disk request descriptors and per-kind statistics. *)

type kind = Read | Write

type t = { mutable lba : int; mutable sectors : int; mutable kind : kind }
(** Mutable so that a queued request's record can be reused for the next
    one ({!Ioqueue}); a request handed to {!Drive.service} is read, never
    kept. *)

val read : lba:int -> sectors:int -> t
val write : lba:int -> sectors:int -> t
val last_lba : t -> int
(** LBA of the request's final sector. *)

val overlaps : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Mutable counters a drive accumulates while servicing requests. *)
module Stats : sig
  type s = {
    mutable reads : int;
    mutable writes : int;
    mutable read_sectors : int;
    mutable write_sectors : int;
    mutable cache_hits : int;  (** read requests absorbed by the on-board cache *)
    mutable busy_time : float;  (** seconds the mechanism/interface was busy *)
    mutable seek_time : float;
    mutable rotation_time : float;
    mutable transfer_time : float;
    mutable overhead_time : float;
        (** controller command overhead, charged on every request *)
    mutable cachehit_time : float;
        (** bus-burst time of reads absorbed by the on-board cache *)
  }

  val create : unit -> s
  val copy : s -> s
  val diff : s -> s -> s
  (** [diff now before] is the per-field difference — used to attribute
      activity to a measurement phase. *)

  val requests : s -> int
  val sectors : s -> int
  val bytes : s -> int
  val pp : Format.formatter -> s -> unit
end
