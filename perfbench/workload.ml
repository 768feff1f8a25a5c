(* The benchmark's three MaxNCG sweep workloads, their inputs and the
   output check on their CSV rows. *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Json = Ncg_obs.Json

type t = {
  name : string;
  graph_class : string;
  alphas : float list;
  ks : int list;
  trials : int;  (** trajectories per cell in one pass *)
  use_store : bool;  (** sweep through a fresh result store *)
}

let all =
  [
    {
      name = "tree-local";
      graph_class = "tree";
      alphas = [ 0.025; 0.05 ];
      ks = [ 2; 3 ];
      trials = 11;
      use_store = true;
    };
    {
      name = "tree-full";
      graph_class = "tree";
      alphas = [ 1.0; 5.0 ];
      ks = [ 1000 ];
      trials = 19;
      use_store = false;
    };
    {
      name = "gnp-dense";
      graph_class = "gnp";
      alphas = [ 0.1; 1.0 ];
      ks = [ 2; 1000 ];
      trials = 8;
      use_store = false;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The full size is the one the committed digests and the published
   numbers refer to; the tiny size exists for the benchmark's own
   self-tests. *)
type size = Full | Tiny

let spec w ~size ~seed =
  let n, trials = match size with Full -> (100, w.trials) | Tiny -> (12, 1) in
  {
    Sweep_spec.graph_class = w.graph_class;
    n;
    p = (match size with Full -> 0.1 | Tiny -> 0.3);
    alphas = w.alphas;
    ks = w.ks;
    trials;
    seed;
    budget = 50_000;
    move_budget = 1_000_000;
    probes = true;
  }

(* --- Inputs ---------------------------------------------------------------

   Every initial profile is drawn here, from the workload seed, before
   anything is timed. The sweep receives them through [make_initial] as
   a lookup keyed by the trial seed the sweep derives, so the program
   never generates an input of its own. *)

type inputs = {
  spec : Sweep_spec.t;
  cells : Experiment.cell array;
  cell_seeds : int array;  (** as [ncg_experiment] derives them *)
  trial_seeds : int array array;  (** per cell, as [run_cell] derives them *)
  profiles : (int, Ncg.Strategy.t) Hashtbl.t;  (** trial seed -> profile *)
}

let generate spec =
  let cells = Array.of_list (Sweep_spec.cells spec) in
  let cell_seeds =
    Experiment.derive_seeds ~seed:spec.Sweep_spec.seed
      ~count:(Array.length cells)
  in
  let trial_seeds =
    Array.map
      (fun seed -> Experiment.derive_seeds ~seed ~count:spec.Sweep_spec.trials)
      cell_seeds
  in
  let profiles = Hashtbl.create 128 in
  Array.iter
    (Array.iter (fun seed ->
         Hashtbl.replace profiles seed (Sweep_spec.make_initial spec ~seed)))
    trial_seeds;
  { spec; cells; cell_seeds; trial_seeds; profiles }

let make_initial inputs ~seed =
  match Hashtbl.find_opt inputs.profiles seed with
  | Some s -> s
  | None -> failwith (Printf.sprintf "no pre-generated profile for seed %d" seed)

let trajectories inputs = Array.length inputs.cells * inputs.spec.Sweep_spec.trials

(* One pass of the workload: the supervised sweep [ncg_experiment]
   runs, on one domain, with the engine defaults. *)
let sweep ?store inputs =
  let spec = inputs.spec in
  Experiment.sweep_supervised ~domains:1 ?store
    ~store_context:(Sweep_spec.context spec) ~probes:spec.Sweep_spec.probes
    ~cell_seeds:inputs.cell_seeds ~make_initial:(make_initial inputs)
    ~make_config:(Sweep_spec.make_config spec)
    ~cells:(Array.to_list inputs.cells) ~trials:spec.Sweep_spec.trials
    ~seed:spec.Sweep_spec.seed ()

let cell_key inputs i =
  let spec = inputs.spec in
  Experiment.cell_cache_key ~probes:spec.Sweep_spec.probes
    ~context:(Sweep_spec.context spec) ~seed:spec.Sweep_spec.seed
    ~trials:spec.Sweep_spec.trials ~cell_seed:inputs.cell_seeds.(i)
    inputs.cells.(i)

let cell_label (c : Experiment.cell) =
  Printf.sprintf "%g:%d" c.Experiment.alpha c.Experiment.k

(* --- Output check ---------------------------------------------------------

   At any seed, every trajectory must end in a profile whose statistics
   are possible for a connected MaxNCG network: finite social cost at
   least the social optimum, and positive diameter and view size. At a
   seed recorded in the digest file, each cell's CSV row must also hash
   to the committed MD5. *)

let plausible (r : Experiment.run_stats) =
  Float.is_finite r.Experiment.social_cost
  && r.Experiment.quality >= 1. -. 1e-9
  && r.Experiment.diameter >= 1
  && r.Experiment.min_view >= 1

let row_digest row = Digest.to_hex (Digest.string row)

(* Digest file layout:
   {"tree-local": {"seed": 2014, "n": 100, "trials": 11,
                   "rows": {"0.025:2": "<md5>", ...}}, ...}
   Returns the expected row digests when the file covers this
   workload at exactly this seed and size. *)
let expected_digests ~file w spec =
  let contents =
    try Some (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error _ -> None
  in
  match Option.map Json.of_string contents with
  | None -> None
  | Some (Error msg) -> failwith (Printf.sprintf "%s: %s" file msg)
  | Some (Ok (Json.Obj workloads)) -> (
      let int_field fields k =
        match List.assoc_opt k fields with Some (Json.Int i) -> Some i | _ -> None
      in
      match List.assoc_opt w.name workloads with
      | Some (Json.Obj fields)
        when int_field fields "seed" = Some spec.Sweep_spec.seed
             && int_field fields "n" = Some spec.Sweep_spec.n
             && int_field fields "trials" = Some spec.Sweep_spec.trials -> (
          match List.assoc_opt "rows" fields with
          | Some (Json.Obj rows) ->
              Some
                (List.filter_map
                   (function
                     | label, Json.String d -> Some (label, d) | _ -> None)
                   rows)
          | _ -> None)
      | _ -> None)
  | Some (Ok _) -> failwith (file ^ ": expected a JSON object")

let digests_entry w spec rows =
  ( w.name,
    Json.Obj
      [
        ("seed", Json.Int spec.Sweep_spec.seed);
        ("n", Json.Int spec.Sweep_spec.n);
        ("trials", Json.Int spec.Sweep_spec.trials);
        ( "rows",
          Json.Obj (List.map (fun (label, row) -> (label, Json.String (row_digest row))) rows)
        );
      ] )
