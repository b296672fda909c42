type zone_info = {
  first_cyl : int;
  last_cyl : int;
  spt : int;
  first_lba : int;  (** LBA of the zone's first sector *)
}

type t = { zones : zone_info array; heads : int; total : int; cylinders : int }

type pos = { mutable cyl : int; mutable head : int; mutable sector : int; mutable spt : int }

let of_profile (p : Profile.t) =
  let next_lba = ref 0 in
  let zones =
    List.map
      (fun (z : Profile.zone) ->
        let info =
          {
            first_cyl = z.first_cyl;
            last_cyl = z.last_cyl;
            spt = z.sectors_per_track;
            first_lba = !next_lba;
          }
        in
        let ncyl = z.last_cyl - z.first_cyl + 1 in
        next_lba := !next_lba + (ncyl * p.heads * z.sectors_per_track);
        info)
      p.zones
    |> Array.of_list
  in
  { zones; heads = p.heads; total = !next_lba; cylinders = p.cylinders }

let total_sectors t = t.total
let cylinders t = t.cylinders

(* The zone searches are top-level functions: a local one capturing the
   key would allocate its closure on every lookup. *)
let rec find_cyl t cyl i =
  if i >= Array.length t.zones then invalid_arg "Geometry: cylinder out of range"
  else begin
    let z = t.zones.(i) in
    if cyl >= z.first_cyl && cyl <= z.last_cyl then z else find_cyl t cyl (i + 1)
  end

let zone_of_cyl t cyl = find_cyl t cyl 0
let sectors_per_track t cyl = (zone_of_cyl t cyl).spt

let rec find_lba t lba i =
  let z = t.zones.(i) in
  if i = Array.length t.zones - 1 || lba < t.zones.(i + 1).first_lba then z
  else find_lba t lba (i + 1)

let zone_of_lba t lba =
  if lba < 0 || lba >= t.total then invalid_arg "Geometry: LBA out of range";
  find_lba t lba 0

let locate_into t lba p =
  let z = zone_of_lba t lba in
  let rel = lba - z.first_lba in
  let per_cyl = t.heads * z.spt in
  let in_cyl = rel mod per_cyl in
  p.cyl <- z.first_cyl + (rel / per_cyl);
  p.head <- in_cyl / z.spt;
  p.sector <- in_cyl mod z.spt;
  p.spt <- z.spt

let locate t lba =
  let p = { cyl = 0; head = 0; sector = 0; spt = 0 } in
  locate_into t lba p;
  p

let cyl_of_lba t lba =
  let z = zone_of_lba t lba in
  z.first_cyl + ((lba - z.first_lba) / (t.heads * z.spt))

let first_lba_of_cyl t cyl =
  let z = zone_of_cyl t cyl in
  z.first_lba + ((cyl - z.first_cyl) * t.heads * z.spt)
