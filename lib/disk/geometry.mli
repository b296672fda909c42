(** Logical-block to physical-position mapping for a zoned drive.

    LBAs are 512-byte sectors numbered from the outermost cylinder inward;
    within a cylinder, surfaces are filled in order; within a track, sectors
    are sequential.  (No serpentine layout; track and cylinder skew are
    modelled in {!Drive} as switch times rather than explicit offsets.) *)

type t

type pos = {
  mutable cyl : int;
  mutable head : int;
  mutable sector : int;  (** index within the track *)
  mutable spt : int;  (** sectors per track at this cylinder *)
}

val of_profile : Profile.t -> t
val total_sectors : t -> int
val cylinders : t -> int

val sectors_per_track : t -> int -> int
(** [sectors_per_track t cyl]. *)

val locate : t -> int -> pos
(** [locate t lba].  Raises [Invalid_argument] for out-of-range LBAs. *)

val locate_into : t -> int -> pos -> unit
(** [locate_into t lba p] writes [locate t lba] into [p], allocating
    nothing. *)

val cyl_of_lba : t -> int -> int
(** Cheap cylinder-only lookup used by schedulers. *)

val first_lba_of_cyl : t -> int -> int
