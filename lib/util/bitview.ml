let get b base i = Codec.get_u8 b (base + (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set b base i =
  let at = base + (i lsr 3) in
  Codec.set_u8 b at (Codec.get_u8 b at lor (1 lsl (i land 7)))

let clear b base i =
  let at = base + (i lsr 3) in
  Codec.set_u8 b at (Codec.get_u8 b at land lnot (1 lsl (i land 7)))

(* First clear bit in [i, stop), stepping over whole 0xFF bytes. *)
let rec scan b base i stop =
  if i >= stop then None
  else if i land 7 = 0 && i + 8 <= stop && Codec.get_u8 b (base + (i lsr 3)) = 0xFF
  then scan b base (i + 8) stop
  else if get b base i then scan b base (i + 1) stop
  else Some i

let find_clear b base ~len ~hint =
  let hint = if len = 0 then 0 else hint mod len in
  match scan b base hint len with Some _ as r -> r | None -> scan b base 0 hint
