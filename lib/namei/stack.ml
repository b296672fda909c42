module type SOURCE = sig
  include Cffs_vfs.Obs_low.SOURCE

  val namei : t -> Namei.t
end

module Make (F : SOURCE) = struct
  (* The namei layer interposes between the instrumented LOW and the path
     API, so the obs spans time only real file-system work: a dentry hit
     never reaches [Low]. *)
  module Low = Cffs_vfs.Obs_low.Make (F)

  module Cached = Namei.Make (struct
    include Low

    let namei = F.namei
  end)

  (* A shortcut miss still walks through [Cached], so it benefits from
     (and warms) the dentry cache. *)
  include Cffs_vfs.Pathfs.MakeWith (Cached) (Namei.Resolver (Cached))

  let label = F.label
  let root = F.root
  let data_runs = F.data_runs
  let sync = F.sync
  let usage = F.usage
end
