module Json = Cffs_obs.Json

(* The bench gate.  The simulation is deterministic, so a benchmark
   document reproduces its baseline exactly unless a change moved a
   simulated number on purpose: flatten both documents to dotted paths
   and require every scalar leaf — number, string, bool or null — to be
   equal, and every path to exist on both sides. *)

exception Duplicate_path of string

type change = { path : string; before : Json.t option; after : Json.t option }
type result = { leaves : int; changes : change list }

(* --- flattening ----------------------------------------------------------- *)

(* Arrays of objects are keyed by a discriminating field when one exists
   (phase, stream, label, metric, config, name), falling back to the
   index, so reordering entries does not miscompare them. *)
let key_fields = [ "phase"; "stream"; "label"; "metric"; "config"; "name" ]

let element_key fields i =
  let rec pick = function
    | [] -> string_of_int i
    | f :: rest -> (
        match List.assoc_opt f fields with
        | Some (Json.String s) -> s
        | _ -> pick rest)
  in
  pick key_fields

let flatten (doc : Json.t) : (string * Json.t) list =
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let emit path v =
    if Hashtbl.mem seen path then raise (Duplicate_path path);
    Hashtbl.add seen path ();
    out := (path, v) :: !out
  in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix = function
    | Json.Obj fields -> List.iter (fun (k, v) -> go (join prefix k) v) fields
    | Json.List elems ->
        List.iteri
          (fun i e ->
            match e with
            | Json.Obj fields -> go (join prefix (element_key fields i)) e
            | e -> go (join prefix (string_of_int i)) e)
          elems
    | leaf -> emit prefix leaf
  in
  go "" doc;
  List.rev !out

(* --- comparison ----------------------------------------------------------- *)

let diff (doc_a : Json.t) (doc_b : Json.t) : result =
  let fa = flatten doc_a and fb = flatten doc_b in
  let ta = Hashtbl.of_seq (List.to_seq fa) and tb = Hashtbl.of_seq (List.to_seq fb) in
  let moved =
    List.filter_map
      (fun (path, a) ->
        match Hashtbl.find_opt tb path with
        | Some b when b = a -> None
        | after -> Some { path; before = Some a; after })
      fa
  in
  let added =
    List.filter_map
      (fun (path, b) ->
        if Hashtbl.mem ta path then None else Some { path; before = None; after = Some b })
      fb
  in
  { leaves = List.length fa + List.length added; changes = moved @ added }

let clean r = r.changes = []

(* --- reporting ------------------------------------------------------------ *)

let section path =
  match String.index_opt path '.' with Some i -> String.sub path 0 i | None -> path

(* Sections in document order, then stably by how many leaves moved. *)
let by_section changes =
  let order = ref [] and groups = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let s = section c.path in
      match Hashtbl.find_opt groups s with
      | Some cs -> Hashtbl.replace groups s (c :: cs)
      | None ->
          order := s :: !order;
          Hashtbl.add groups s [ c ])
    changes;
  List.rev_map (fun s -> (s, List.rev (Hashtbl.find groups s))) !order
  |> List.stable_sort (fun (_, a) (_, b) -> compare (List.length b) (List.length a))

let show = function None -> "(absent)" | Some v -> Json.to_string v

let number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float x) -> Some x
  | _ -> None

let relative c =
  match (number c.before, number c.after) with
  | Some a, Some b when a <> 0.0 ->
      Printf.sprintf "  %+.2f%%" ((b -. a) /. Float.abs a *. 100.0)
  | _ -> ""

let pp ppf r =
  Format.fprintf ppf "%d leaves compared, %d changed@." r.leaves
    (List.length r.changes);
  List.iter
    (fun (s, cs) ->
      Format.fprintf ppf "%s: %d changed@." s (List.length cs);
      List.iter
        (fun c ->
          Format.fprintf ppf "  %s  %s -> %s%s@." c.path (show c.before)
            (show c.after) (relative c))
        cs)
    (by_section r.changes)
