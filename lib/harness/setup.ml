module Volume = Cffs_volume.Volume
module Env = Cffs_workload.Env
module Fs_intf = Cffs_vfs.Fs_intf

type fs_kind = Ffs_baseline | Cffs_fs of Cffs.config

let fs_kind_label = function
  | Ffs_baseline -> "FFS"
  | Cffs_fs c -> Cffs.config_label c

let four_configs =
  [
    Cffs_fs Cffs.config_ffs_like;
    Cffs_fs { Cffs.config_default with grouping = false };
    Cffs_fs { Cffs.config_default with embed_inodes = false };
    Cffs_fs Cffs.config_default;
  ]

let five_configs = Ffs_baseline :: four_configs

type t = {
  profile : Cffs_disk.Profile.t;
  block_size : int;
  cache_blocks : int;
  policy : Cffs_cache.Cache.policy;
  scheduler : Cffs_disk.Scheduler.policy;
  cpu_per_op : float;
  host_overhead : float;
  fs : fs_kind;
  namei : Cffs_namei.Namei.config;
  drives : int;
  vol_layout : Volume.layout;
}

let standard ?(policy = Cffs_cache.Cache.Sync_metadata)
    ?(namei = Cffs_namei.Namei.config_default) ?(drives = 1)
    ?(vol_layout = Volume.Striped) fs =
  {
    profile = Cffs_disk.Profile.seagate_st31200;
    block_size = 4096;
    cache_blocks = 16384;
    policy;
    scheduler = Cffs_disk.Scheduler.Clook;
    cpu_per_op = 100e-6;
    host_overhead = 0.5e-3;
    fs;
    namei;
    drives = max 1 drives;
    vol_layout = (if drives <= 1 then Volume.Single else vol_layout);
  }

type instance = {
  setup : t;
  env : Env.t;
  cffs : Cffs.t option;
  ffs : Ffs.t option;
}

(* The stripe unit matches the default cylinder-group span, so a striped
   volume places whole groups on single spindles and a meta-split volume
   splits each group at its metadata/data boundary: one header block for
   C-FFS (embedded inodes ride the data blocks — the paper's point), the
   header plus the static inode table for FFS. *)
let stripe_unit = 2048

let meta_per_chunk = function
  | Ffs_baseline ->
      (* mirror Ffs.format's defaults: 1024 inodes/cg, 128-byte slots *)
      1 + (1024 / (4096 / 128))
  | Cffs_fs _ -> 1

let mkdev setup =
  (Volume.create ~profile:setup.profile ~scheduler:setup.scheduler
     ~host_overhead:setup.host_overhead ~block_size:setup.block_size
     ~stripe_unit ~meta_per_chunk:(meta_per_chunk setup.fs)
     ~drives:setup.drives ~layout:setup.vol_layout ())
    .Volume.dev

let instantiate setup =
  let dev = mkdev setup in
  match setup.fs with
  | Ffs_baseline ->
      let fs =
        Ffs.format ~policy:setup.policy ~cache_blocks:setup.cache_blocks
          ~namei:setup.namei dev
      in
      let env =
        Env.make ~cpu_per_op:setup.cpu_per_op (Fs_intf.Packed ((module Ffs), fs)) dev
      in
      { setup; env; cffs = None; ffs = Some fs }
  | Cffs_fs config ->
      let fs =
        Cffs.format ~config ~policy:setup.policy ~cache_blocks:setup.cache_blocks
          ~namei:setup.namei dev
      in
      let env =
        Env.make ~cpu_per_op:setup.cpu_per_op (Fs_intf.Packed ((module Cffs), fs)) dev
      in
      { setup; env; cffs = Some fs; ffs = None }

let cache_of inst =
  match (inst.cffs, inst.ffs) with
  | Some fs, _ -> Cffs.cache fs
  | None, Some fs -> Ffs.cache fs
  | None, None -> assert false

let env ?policy fs = (instantiate (standard ?policy fs)).env
