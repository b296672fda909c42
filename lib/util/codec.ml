let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

let get_string b off len = Bytes.sub_string b off len
let set_string b off s = Bytes.blit_string s 0 b off (String.length s)

let rec equal_from b off s i n =
  i >= n || (Bytes.get b (off + i) = String.get s i && equal_from b off s (i + 1) n)

let equal_string b off s =
  let n = String.length s in
  off >= 0 && off + n <= Bytes.length b && equal_from b off s 0 n

let get_cstring b off max =
  let rec len i = if i >= max || Bytes.get b (off + i) = '\000' then i else len (i + 1) in
  Bytes.sub_string b off (len 0)

let set_cstring b off max s =
  let n = String.length s in
  if n > max then invalid_arg "Codec.set_cstring: string too long";
  Bytes.blit_string s 0 b off n;
  Bytes.fill b (off + n) (max - n) '\000'

let zero b off len = Bytes.fill b off len '\000'
