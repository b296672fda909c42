(* Grouping by name space for a web-document tree.

   The paper's discussion section suggests grouping the files that make up a
   single hypertext document [Kaashoek96].  C-FFS approximates this through
   the name space: a page's assets live in the page's directory, so its data
   blocks share group frames and a cold page-load becomes one or two disk
   requests instead of a dozen.

   This example builds a small site (one directory per page: the HTML plus
   its images/CSS), then measures cold page-load latency on the conventional
   configuration and on C-FFS.

   Run with: dune exec examples/web_server.exe *)

module Setup = Cffs_harness.Setup
module Blockdev = Cffs_blockdev.Blockdev
module Request = Cffs_disk.Request
module Env = Cffs_workload.Env
module Errno = Cffs_vfs.Errno
module Fs_intf = Cffs_vfs.Fs_intf
module Prng = Cffs_util.Prng

let ok what = Errno.get_ok what
let pages = 40
let assets_per_page = 7

let asset_name p a = Printf.sprintf "/site/page%02d/asset%d.png" p a
let html_name p = Printf.sprintf "/site/page%02d/index.html" p

let build_site (Fs_intf.Packed ((module F), fs)) =
  let prng = Prng.create 0x5EED in
  ok "mkdir" (F.mkdir fs "/site");
  for p = 0 to pages - 1 do
    ok "mkdir" (F.mkdir fs (Printf.sprintf "/site/page%02d" p));
    ok "html" (F.write_file fs (html_name p) (Prng.bytes prng (2048 + Prng.int prng 2048)));
    for a = 0 to assets_per_page - 1 do
      ok "asset"
        (F.write_file fs (asset_name p a) (Prng.bytes prng (1024 + Prng.int prng 3072)))
    done
  done;
  F.sync fs

(* A page load reads the HTML, then every referenced asset. *)
let load_page (Fs_intf.Packed ((module F), fs)) env p =
  Blockdev.advance env.Env.dev env.Env.cpu_per_op;
  ignore (ok "html" (F.read_file fs (html_name p)));
  for a = 0 to assets_per_page - 1 do
    Blockdev.advance env.Env.dev env.Env.cpu_per_op;
    ignore (ok "asset" (F.read_file fs (asset_name p a)))
  done

let measure kind =
  let inst = Setup.instantiate (Setup.standard kind) in
  let env = inst.Setup.env in
  build_site env.Env.fs;
  let (Fs_intf.Packed ((module F), fs)) = env.Env.fs in
  F.remount fs (* every page load is cold: a busy server's cache misses *);
  let requests () = Request.Stats.requests (Blockdev.stats env.Env.dev) in
  let latencies = Cffs_util.Stats.create () in
  let before_reqs = requests () in
  for p = 0 to pages - 1 do
    let t0 = Blockdev.now env.Env.dev in
    load_page env.Env.fs env p;
    Cffs_util.Stats.add latencies ((Blockdev.now env.Env.dev -. t0) *. 1000.0)
  done;
  let reqs = requests () - before_reqs in
  (latencies, float_of_int reqs /. float_of_int pages)

let () =
  Printf.printf
    "Cold page loads (%d pages x %d assets) on a simulated ST31200\n\n%!" pages
    (1 + assets_per_page);
  List.iter
    (fun kind ->
      let lat, reqs_per_page = measure kind in
      Printf.printf "%-14s  mean %6.1f ms   p95 %6.1f ms   %4.1f disk requests/page\n%!"
        (Setup.fs_kind_label kind)
        (Cffs_util.Stats.mean lat)
        (Cffs_util.Stats.percentile lat 95.0)
        reqs_per_page)
    [ Setup.Cffs_fs Cffs.config_ffs_like; Setup.Cffs_fs Cffs.config_default ];
  Printf.printf
    "\nCo-location turns a page's dozen small reads into one or two frame\n\
     reads: exactly the [Kaashoek96] server-operating-system argument.\n"
