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

let cache_key spec cell =
  Experiment.cell_cache_key ~probes:spec.probes ~context:(context spec)
    ~seed:spec.seed ~trials:spec.trials ~cell_seed:(cell_seed spec cell) cell

let run_cell spec cell =
  Experiment.run_cell ~probes:spec.probes ~make_initial:(make_initial spec)
    ~make_config:(make_config spec) ~trials:spec.trials
    ~cell_seed:(cell_seed spec cell) cell

let csv_row spec r =
  Experiment.csv_row ~graph_class:spec.graph_class ~n:spec.n ~p:spec.p
    ~trials:spec.trials r

let schema = Ncg_obs.Schema.service_spec

let to_json spec =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("class", Json.String spec.graph_class);
      ("n", Json.Int spec.n);
      ("p", Json.Float spec.p);
      ("alphas", Json.List (List.map (fun a -> Json.Float a) spec.alphas));
      ("ks", Json.List (List.map (fun k -> Json.Int k) spec.ks));
      ("trials", Json.Int spec.trials);
      ("seed", Json.Int spec.seed);
      ("budget", Json.Int spec.budget);
      ("move_budget", Json.Int spec.move_budget);
      ("probes", Json.Bool spec.probes);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let member name =
    match j with
    | Json.Obj fields -> (
        match List.assoc_opt name fields with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "spec: missing field %S" name))
    | _ -> Error "spec: not an object"
  in
  let as_int name = function
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "spec: %S must be an integer" name)
  in
  let as_float name = function
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "spec: %S must be a number" name)
  in
  let* s = member "schema" in
  let* () =
    match s with
    | Json.String v when String.equal v schema -> Ok ()
    | Json.String v -> Error (Printf.sprintf "spec: unsupported schema %S" v)
    | _ -> Error "spec: schema must be a string"
  in
  let* graph_class =
    let* v = member "class" in
    match v with
    | Json.String c -> Ok c
    | _ -> Error "spec: \"class\" must be a string"
  in
  let* n = Result.bind (member "n") (as_int "n") in
  let* p = Result.bind (member "p") (as_float "p") in
  let* alphas =
    let* v = member "alphas" in
    match v with
    | Json.List xs ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* f = as_float "alphas" x in
            Ok (f :: acc))
          (Ok []) xs
        |> Result.map List.rev
    | _ -> Error "spec: \"alphas\" must be a list"
  in
  let* ks =
    let* v = member "ks" in
    match v with
    | Json.List xs ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* k = as_int "ks" x in
            Ok (k :: acc))
          (Ok []) xs
        |> Result.map List.rev
    | _ -> Error "spec: \"ks\" must be a list"
  in
  let* trials = Result.bind (member "trials") (as_int "trials") in
  let* seed = Result.bind (member "seed") (as_int "seed") in
  let* budget = Result.bind (member "budget") (as_int "budget") in
  let* move_budget = Result.bind (member "move_budget") (as_int "move_budget") in
  let* probes =
    let* v = member "probes" in
    match v with
    | Json.Bool b -> Ok b
    | _ -> Error "spec: \"probes\" must be a boolean"
  in
  let spec =
    {
      graph_class;
      n;
      p;
      alphas;
      ks;
      trials;
      seed;
      budget;
      move_budget;
      probes;
    }
  in
  let* () = validate spec in
  Ok spec
