module Json = Ncg_obs.Json

type t = {
  graph_class : string;
  n : int;
  p : float;
  alphas : float list;
  ks : int list;
  trials : int;
  seed : int;
  budget : int;
  move_budget : int;
  probes : bool;
}

let default =
  {
    graph_class = "tree";
    n = 50;
    p = 0.1;
    alphas = [ 0.5; 1.0; 2.0; 5.0 ];
    ks = [ 2; 3; 4; 5; 1000 ];
    trials = 5;
    seed = 2014;
    budget = 50_000;
    move_budget = 1_000_000;
    probes = true;
  }

let graph_classes = [ "tree"; "gnp"; "ba"; "ws" ]

let validate spec =
  if not (List.mem spec.graph_class graph_classes) then
    Error (Printf.sprintf "unknown graph class %S" spec.graph_class)
  else if spec.n < 2 then Error "n must be at least 2"
  else if not (spec.p >= 0. && spec.p <= 1.) then Error "p must be in [0, 1]"
  else if spec.graph_class = "gnp" && spec.p = 0. then
    Error "p must be positive for gnp (G(n, 0) is never connected)"
  else if spec.trials < 1 then Error "trials must be at least 1"
  else if spec.alphas = [] then Error "empty alpha grid"
  else if spec.ks = [] then Error "empty k grid"
  else if List.exists (fun a -> not (Float.is_finite a)) spec.alphas then
    Error "alphas must be finite"
  else if List.exists (fun k -> k < 1) spec.ks then
    Error "ks must be positive"
  else Ok ()

let make_initial spec =
  match spec.graph_class with
  | "tree" -> fun ~seed -> Experiment.initial_tree ~seed ~n:spec.n
  | "gnp" -> fun ~seed -> Experiment.initial_gnp ~seed ~n:spec.n ~p:spec.p
  | "ba" -> fun ~seed -> Experiment.initial_ba ~seed ~n:spec.n ~m:2
  | "ws" -> fun ~seed -> Experiment.initial_ws ~seed ~n:spec.n ~k:4 ~beta:0.2
  | other -> failwith (Printf.sprintf "unknown graph class %S" other)

let make_config spec (cell : Experiment.cell) =
  {
    (Dynamics.default_config ~alpha:cell.Experiment.alpha ~k:cell.Experiment.k) with
    Dynamics.solver = `Budgeted spec.budget;
    collect_features = false;
    move_budget = spec.move_budget;
  }

let context spec =
  (* alpha and k are in the key already; the probe cell only reads off
     the dynamics settings every cell of the spec shares. *)
  let probe = make_config spec { Experiment.alpha = 1.; k = 2 } in
  let solver =
    match probe.Dynamics.solver with
    | `Exact -> "exact"
    | `Greedy -> "greedy"
    | `Budgeted b -> Printf.sprintf "budgeted:%d" b
  in
  let response =
    match probe.Dynamics.response with
    | `Best -> "best"
    | `Local_moves -> "local_moves"
  in
  let sum_mode =
    match probe.Dynamics.sum_mode with
    | `Exact b -> Printf.sprintf "exact:%d" b
    | `Branch_and_bound b -> Printf.sprintf "branch_and_bound:%d" b
    | `Local_search -> "local_search"
  in
  let order =
    match probe.Dynamics.order with
    | `Round_robin -> "round_robin"
    | `Random_sweep s -> Printf.sprintf "random_sweep:%d" s
  in
  [
    ("class", Json.String spec.graph_class);
    ("n", Json.Int spec.n);
    ("p", Json.Float spec.p);
    ("variant", Json.String (Game.variant_to_string probe.Dynamics.variant));
    ("solver", Json.String solver);
    ("response", Json.String response);
    ("sum_mode", Json.String sum_mode);
    ("order", Json.String order);
    ("max_rounds", Json.Int probe.Dynamics.max_rounds);
    ("epsilon", Json.Float probe.Dynamics.epsilon);
    ("move_budget", Json.Int probe.Dynamics.move_budget);
  ]

let cells spec = Experiment.grid ~alphas:spec.alphas ~ks:spec.ks
let cell_seed spec cell = Experiment.cell_seed_of_cell ~seed:spec.seed cell

let trial_seed spec cell ~trial =
  if trial < 0 then invalid_arg "Sweep_spec.trial_seed: negative trial";
  (Experiment.derive_seeds ~seed:(cell_seed spec cell) ~count:(trial + 1)).(trial)

let cache_key spec cell =
  Experiment.cell_cache_key ~probes:spec.probes ~context:(context spec)
    ~seed:spec.seed ~trials:spec.trials ~cell_seed:(cell_seed spec cell) cell

let sweep ?domains ?cell_deadline_ns ?store spec =
  Experiment.sweep_supervised ?domains ?cell_deadline_ns ?store
    ~store_context:(context spec) ~probes:spec.probes
    ~make_initial:(make_initial spec) ~make_config:(make_config spec)
    ~cells:(cells spec) ~trials:spec.trials ~seed:spec.seed ()

let run_cell spec cell =
  Experiment.run_cell ~probes:spec.probes ~make_initial:(make_initial spec)
    ~make_config:(make_config spec) ~trials:spec.trials
    ~cell_seed:(cell_seed spec cell) cell

let csv_row spec r =
  Experiment.csv_row ~graph_class:spec.graph_class ~n:spec.n ~p:spec.p
    ~trials:spec.trials r
