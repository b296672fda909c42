(* Multiply by an odd 62-bit constant (low bits stay a bijection), then
   fold the high half down so the low bits depend on every input bit. *)
let mix x =
  let h = x * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

module Int = struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end

module Pair = struct
  type t = int * int

  let equal ((a1 : int), (b1 : int)) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = mix (mix a + b)
end

module Int_tbl = Hashtbl.Make (Int)
