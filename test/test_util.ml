(* Unit and property tests for the utility substrate. *)

module Prng = Cffs_util.Prng
module Stats = Cffs_util.Stats
module Bitview = Cffs_util.Bitview
module Lru = Cffs_util.Lru
module Codec = Cffs_util.Codec
module Crc32 = Cffs_util.Crc32
module Tablefmt = Cffs_util.Tablefmt
module Units = Cffs_util.Units

let check = Alcotest.check
let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_prng_int_range () =
  let t = Prng.create 7 in
  for _ = 1 to 10000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let test_prng_int_in () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "out of range"
  done

let test_prng_float_range () =
  let t = Prng.create 9 in
  for _ = 1 to 10000 do
    let v = Prng.float t 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.fail "float out of range"
  done

let test_prng_uniformity () =
  let t = Prng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100000 in
  for _ = 1 to n do
    let i = Prng.int t 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      if freq < 0.08 || freq > 0.12 then Alcotest.fail "bucket frequency off")
    counts

let test_prng_chance () =
  let t = Prng.create 13 in
  check Alcotest.bool "p=0 never" false (Prng.chance t 0.0);
  check Alcotest.bool "p=1 always" true (Prng.chance t 1.0);
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Prng.chance t 0.25 then incr hits
  done;
  let f = float_of_int !hits /. 10000.0 in
  check Alcotest.bool "p=0.25 approx" true (f > 0.22 && f < 0.28)

let test_prng_split_independent () =
  let t = Prng.create 21 in
  let a = Prng.split t in
  let b = Prng.split t in
  check Alcotest.bool "split streams differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_exponential_mean () =
  let t = Prng.create 23 in
  let acc = ref 0.0 in
  let n = 50000 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential t 5.0
  done;
  let mean = !acc /. float_of_int n in
  check Alcotest.bool "exponential mean ~5" true (mean > 4.8 && mean < 5.2)

let test_prng_shuffle_permutation () =
  let t = Prng.create 31 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 100 Fun.id) sorted

let test_prng_bytes_len () =
  let t = Prng.create 33 in
  check Alcotest.int "length" 37 (Bytes.length (Prng.bytes t 37))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "percentile empty" 0.0 (Stats.percentile s 50.0);
  (* min/max are 0.0 (not infinities) when nothing was observed. *)
  check (Alcotest.float 0.0) "min empty" 0.0 (Stats.min s);
  check (Alcotest.float 0.0) "max empty" 0.0 (Stats.max s)

let test_stats_reservoir () =
  let s = Stats.create ~reservoir:10 () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  (* Moments are exact regardless of the cap... *)
  check Alcotest.int "count" 1000 (Stats.count s);
  check (Alcotest.float 1e-9) "mean exact" 500.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min exact" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max exact" 1000.0 (Stats.max s);
  (* ...while sample storage stays bounded. *)
  check Alcotest.int "retained capped" 10 (Stats.retained s);
  let p = Stats.percentile s 50.0 in
  check Alcotest.bool "percentile from retained samples" true
    (p >= 1.0 && p <= 1000.0)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-6) "p50" 50.5 (Stats.percentile s 50.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m);
  (* Moments combine exactly, same as adding all four samples in order. *)
  check (Alcotest.float 1e-6) "merged variance" (5.0 /. 3.0) (Stats.variance m);
  check (Alcotest.float 1e-9) "merged min" 1.0 (Stats.min m);
  check (Alcotest.float 1e-9) "merged max" 4.0 (Stats.max m)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  check Alcotest.int "bucket 0 (incl clamped low)" 2 counts.(0);
  check Alcotest.int "bucket 1" 2 counts.(1);
  check Alcotest.int "bucket 9 (incl clamped high)" 2 counts.(9);
  check Alcotest.int "total" 6 (Stats.Histogram.total h);
  let lo, hi = Stats.Histogram.bucket_bounds h 3 in
  check (Alcotest.float 1e-9) "bound lo" 3.0 lo;
  check (Alcotest.float 1e-9) "bound hi" 4.0 hi

let qcheck_stats_mean_welford =
  qtest "stats: Welford mean matches naive mean"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6 *. (1.0 +. Float.abs naive))

(* ------------------------------------------------------------------ *)
(* Bitview: allocation maps in place inside header bytes *)

let test_bitmap_basic () =
  let b = Bytes.make 16 '\000' in
  Bitview.set b 0 7;
  Bitview.set b 0 99;
  check Alcotest.bool "get 7" true (Bitview.get b 0 7);
  check Alcotest.bool "get 8" false (Bitview.get b 0 8);
  check Alcotest.bool "get 99" true (Bitview.get b 0 99);
  Bitview.clear b 0 7;
  check Alcotest.bool "cleared" false (Bitview.get b 0 7);
  Bitview.set b 0 99;
  check Alcotest.bool "idempotent set" true (Bitview.get b 0 99)

let test_bitmap_ranges () =
  (* a map at a byte offset inside a header: bits straddling byte
     boundaries stay inside the map's bytes *)
  let b = Bytes.make 12 '\000' in
  for i = 6 to 17 do
    Bitview.set b 4 i
  done;
  check Alcotest.string "bytes before the map untouched" "\000\000\000\000"
    (Bytes.sub_string b 0 4);
  check Alcotest.string "bits 6..17" "\xc0\xff\x03" (Bytes.sub_string b 4 3);
  check Alcotest.string "bytes after untouched" "\000\000\000\000\000"
    (Bytes.sub_string b 7 5);
  for i = 6 to 17 do
    Bitview.clear b 4 i
  done;
  check Alcotest.bool "cleared" true (Bytes.equal b (Bytes.make 12 '\000'))

let test_bitmap_find_clear () =
  let b = Bytes.make 2 '\xff' in
  check (Alcotest.option Alcotest.int) "full" None
    (Bitview.find_clear b 0 ~len:16 ~hint:3);
  Bitview.clear b 0 5;
  check (Alcotest.option Alcotest.int) "finds 5 from 3" (Some 5)
    (Bitview.find_clear b 0 ~len:16 ~hint:3);
  check (Alcotest.option Alcotest.int) "wraps from 10" (Some 5)
    (Bitview.find_clear b 0 ~len:16 ~hint:10);
  Bitview.clear b 0 15;
  check (Alcotest.option Alcotest.int) "past the map is ignored" (Some 5)
    (Bitview.find_clear b 0 ~len:12 ~hint:6)

let test_bitmap_serialise () =
  (* the view is the on-disk encoding: bit i lives in bit (i mod 8) of
     byte (i / 8) *)
  let b = Bytes.make 10 '\000' in
  List.iter (Bitview.set b 0) [ 0; 13; 64; 76 ];
  check Alcotest.string "little-endian bit order"
    "\x01\x20\000\000\000\000\000\000\x01\x10" (Bytes.to_string b)

let qcheck_bitmap_model =
  qtest "bitmap: set/clear agrees with a boolean-array model"
    QCheck.(list (pair (int_bound 199) bool))
    (fun ops ->
      let b = Bytes.make 25 '\000' in
      let model = Array.make 200 false in
      List.iter
        (fun (i, set) ->
          if set then Bitview.set b 0 i else Bitview.clear b 0 i;
          model.(i) <- set)
        ops;
      let ok = ref true in
      Array.iteri (fun i v -> if Bitview.get b 0 i <> v then ok := false) model;
      !ok)

let qcheck_bitmap_find_clear_scan =
  qtest "bitmap: find_clear agrees with a bit-by-bit circular scan"
    QCheck.(triple (list (int_bound 127)) (int_range 1 128) (int_bound 200))
    (fun (clears, len, hint) ->
      let b = Bytes.make 16 '\xff' in
      List.iter (Bitview.clear b 0) clears;
      let linear =
        let h = hint mod len in
        let rec scan k =
          if k = len then None
          else
            let i = (h + k) mod len in
            if Bitview.get b 0 i then scan (k + 1) else Some i
        in
        scan 0
      in
      Bitview.find_clear b 0 ~len ~hint = linear)

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_order () =
  let l = Lru.create () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 3 "c";
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "lru is 1"
    (Some (1, "a")) (Lru.lru l);
  ignore (Lru.use l 1);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "lru is 2 after touch"
    (Some (2, "b")) (Lru.lru l);
  check Alcotest.int "length" 3 (Lru.length l)

let test_lru_pop () =
  let l = Lru.create () in
  Lru.add l 1 1;
  Lru.add l 2 2;
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "pop 1" (Some (1, 1))
    (Lru.pop_lru l);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "pop 2" (Some (2, 2))
    (Lru.pop_lru l);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "empty" None
    (Lru.pop_lru l)

let test_lru_replace () =
  let l = Lru.create () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 1 "a2";
  check Alcotest.int "no dup" 2 (Lru.length l);
  check (Alcotest.option Alcotest.string) "replaced" (Some "a2") (Lru.find l 1);
  (* replacing touched key 1, so 2 is now LRU *)
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "2 is lru"
    (Some (2, "b")) (Lru.lru l)

let test_lru_remove () =
  let l = Lru.create () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.remove l 1;
  check Alcotest.bool "gone" false (Lru.mem l 1);
  check Alcotest.int "length" 1 (Lru.length l);
  Lru.remove l 42 (* removing a missing key is fine *)

let test_lru_iter_order () =
  let l = Lru.create () in
  List.iter (fun i -> Lru.add l i i) [ 1; 2; 3; 4 ];
  ignore (Lru.use l 2);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "lru-to-mru"
    [ (1, 1); (3, 3); (4, 4); (2, 2) ]
    (Lru.to_list l)

let qcheck_lru_model =
  qtest "lru: agrees with a list-based model"
    QCheck.(list (pair (int_bound 20) (int_bound 2)))
    (fun ops ->
      let l = Lru.create () in
      (* model: association list in LRU order (head = LRU) *)
      let model = ref [] in
      let model_add k v =
        model := List.filter (fun (k', _) -> k' <> k) !model @ [ (k, v) ]
      in
      let model_use k =
        match List.assoc_opt k !model with
        | Some v ->
            model := List.filter (fun (k', _) -> k' <> k) !model @ [ (k, v) ]
        | None -> ()
      in
      let model_remove k = model := List.filter (fun (k', _) -> k' <> k) !model in
      List.iter
        (fun (k, op) ->
          match op with
          | 0 ->
              Lru.add l k k;
              model_add k k
          | 1 ->
              ignore (Lru.use l k);
              model_use k
          | _ ->
              Lru.remove l k;
              model_remove k)
        ops;
      Lru.to_list l = !model)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip () =
  let b = Bytes.make 64 '\000' in
  Codec.set_u8 b 0 0xAB;
  Codec.set_u16 b 1 0xBEEF;
  Codec.set_u32 b 4 0xDEADBEEF;
  Codec.set_u64 b 8 0x1122334455667788;
  check Alcotest.int "u8" 0xAB (Codec.get_u8 b 0);
  check Alcotest.int "u16" 0xBEEF (Codec.get_u16 b 1);
  check Alcotest.int "u32" 0xDEADBEEF (Codec.get_u32 b 4);
  check Alcotest.int "u64" 0x1122334455667788 (Codec.get_u64 b 8)

let test_codec_cstring () =
  let b = Bytes.make 32 '\xff' in
  Codec.set_cstring b 4 10 "hello";
  check Alcotest.string "cstring" "hello" (Codec.get_cstring b 4 10);
  Codec.set_cstring b 4 10 "0123456789";
  check Alcotest.string "full-width" "0123456789" (Codec.get_cstring b 4 10);
  check Alcotest.bool "too long rejected" true
    (try
       Codec.set_cstring b 4 10 "0123456789x";
       false
     with Invalid_argument _ -> true)

let qcheck_codec_u32 =
  qtest "codec: u32 roundtrips"
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
      let b = Bytes.make 8 '\000' in
      Codec.set_u32 b 2 v;
      Codec.get_u32 b 2 = v)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_vectors () =
  (* Standard IEEE CRC-32 check value. *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.digest (Bytes.of_string "123456789"));
  check Alcotest.int "empty" 0 (Crc32.digest Bytes.empty)

let test_crc32_incremental () =
  let data = Bytes.of_string "hello, world" in
  let whole = Crc32.digest data in
  let sub = Crc32.digest_sub data 0 (Bytes.length data) in
  check Alcotest.int "digest_sub whole" whole sub

let qcheck_crc32_detects_flip =
  qtest "crc32: single-byte flips change the checksum"
    QCheck.(pair (string_of_size (Gen.int_range 1 64)) (int_bound 63))
    (fun (s, i) ->
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      let before = Crc32.digest b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
      Crc32.digest b <> before)

(* ------------------------------------------------------------------ *)
(* Tablefmt and Units *)

let test_tablefmt_render () =
  let t = Tablefmt.create ~title:"T" [ ("a", Tablefmt.Left); ("b", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_row t [ "long"; "22" ];
  let s = Tablefmt.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check Alcotest.bool "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "x      1" || l = "x      1 ") lines)

let test_tablefmt_arity () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  check Alcotest.bool "wrong arity rejected" true
    (try
       Tablefmt.add_row t [ "x"; "y" ];
       false
     with Invalid_argument _ -> true)

let test_units () =
  check Alcotest.string "bytes" "4.0 KB" (Tablefmt.fmt_bytes 4096);
  check Alcotest.string "mb" "2.0 MB" (Tablefmt.fmt_bytes (2 * 1024 * 1024));
  check (Alcotest.float 1e-9) "ms" 0.005 (Units.ms 5.0);
  check (Alcotest.float 1e-9) "rev" 0.01 (Units.rpm_to_rev_time 6000.0)

let () =
  Alcotest.run "cffs_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed independence" `Quick test_prng_different_seeds;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "chance" `Quick test_prng_chance;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "reservoir" `Quick test_stats_reservoir;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          qcheck_stats_mean_welford;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "basic" `Quick test_bitmap_basic;
          Alcotest.test_case "ranges" `Quick test_bitmap_ranges;
          Alcotest.test_case "find_clear" `Quick test_bitmap_find_clear;
          Alcotest.test_case "serialise" `Quick test_bitmap_serialise;
          qcheck_bitmap_model;
          qcheck_bitmap_find_clear_scan;
        ] );
      ( "lru",
        [
          Alcotest.test_case "recency order" `Quick test_lru_order;
          Alcotest.test_case "pop" `Quick test_lru_pop;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "iter order" `Quick test_lru_iter_order;
          qcheck_lru_model;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "cstring" `Quick test_codec_cstring;
          qcheck_codec_u32;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          qcheck_crc32_detects_flip;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "arity" `Quick test_tablefmt_arity;
          Alcotest.test_case "units" `Quick test_units;
        ] );
    ]
