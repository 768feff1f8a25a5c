module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs

type config = {
  variant : Game.variant;
  alpha : float;
  k : int;
  solver : [ `Exact | `Budgeted of int | `Greedy ];
  response : [ `Best | `Local_moves ];
  sum_mode : [ `Exact of int | `Branch_and_bound of int | `Local_search ];
  order : [ `Round_robin | `Random_sweep of int ];
  max_rounds : int;
  epsilon : float;
  collect_features : bool;
  move_budget : int;
}

let default_config ~alpha ~k =
  {
    variant = Game.Max;
    alpha;
    k;
    solver = `Exact;
    response = `Best;
    sum_mode = `Local_search;
    order = `Round_robin;
    max_rounds = 200;
    epsilon = 1e-9;
    collect_features = true;
    move_budget = 1_000_000;
  }

type outcome = Converged of int | Cycle_detected of int | Max_rounds_exceeded

type result = {
  outcome : outcome;
  final : Strategy.t;
  rounds : int;
  total_moves : int;
  features : Features.t list;
  trace : Trace.t;
}

(* How far an accepted move reaches, measured inside the view where
   distances from the player are already known: the symmetric-difference
   size of the target sets, and the largest view distance of any newly
   bought edge — the per-round locality signals the probe layer records.
   [before], [targets] and [dist] share the view's ids. *)
type move_stats = { edit_distance : int; radius : int }

let move_stats ~before ~dist targets =
  let added = List.filter (fun t -> not (List.mem t before)) targets in
  let removed = List.filter (fun t -> not (List.mem t targets)) before in
  let radius = List.fold_left (fun acc t -> max acc dist.(t)) 0 added in
  { edit_distance = List.length added + List.length removed; radius }

(* On an accepted move, returns the player's new targets in host ids, her
   view-local cost before and after — already computed by the oracles,
   and what the round probes sum into best-response gaps — and the move's
   locality stats. The MaxNCG best response reads the view in place on
   [g]; the other engines search a {!View.t} copy. *)
let improving_move ~ws config strategy g u =
  let alpha = config.alpha and epsilon = config.epsilon in
  let on_copy engine =
    let view = View.extract ~scratch:ws.Workspace.bfs strategy g ~k:config.k u in
    Option.map
      (fun (targets, old_cost, new_cost) ->
        ( View.to_host view targets,
          old_cost,
          new_cost,
          move_stats ~before:view.View.owned ~dist:view.View.dist targets ))
      (engine view)
  in
  match (config.variant, config.response) with
  | Game.Max, `Best ->
      let view = Ball_view.borrow ~scratch:ws.Workspace.bfs strategy g ~k:config.k u in
      Option.map
        (fun (o : Best_response.outcome) ->
          let targets = o.Best_response.targets in
          ( targets,
            Best_response.ball_cost ~alpha view,
            o.Best_response.cost,
            move_stats ~before:view.Ball_view.owned ~dist:view.Ball_view.dist targets ))
        (Best_response.improving_ball ~ws ~solver:config.solver ~epsilon ~alpha view)
  | Game.Max, `Local_moves ->
      on_copy (fun view ->
          let o = Best_response.local_search ~alpha view in
          let current = Best_response.current_cost ~alpha view in
          if o.Best_response.cost < current -. epsilon then
            Some (o.Best_response.targets, current, o.Best_response.cost)
          else None)
  | Game.Sum, _ ->
      on_copy (fun view ->
          Option.map
            (fun (o : Sum_best_response.outcome) ->
              ( o.Sum_best_response.targets,
                Sum_best_response.current_cost ~alpha view,
                o.Sum_best_response.cost ))
            (Sum_best_response.improving ~epsilon ~alpha ~mode:config.sum_mode view))

let best_response_step ?ws config strategy g u =
  let ws = match ws with Some w -> w | None -> Workspace.create () in
  Option.map
    (fun (targets, old_cost, new_cost, _stats) ->
      (Strategy.with_owned strategy u targets, old_cost, new_cost))
    (improving_move ~ws config strategy g u)

let run_untraced config strategy0 =
  let n = Strategy.n_players strategy0 in
  let g0 = Strategy.graph strategy0 in
  if not (Bfs.is_connected g0) then
    invalid_arg "Dynamics.run: initial network must be connected";
  let detect_cycles = config.order = `Round_robin in
  (* One workspace per trajectory — reused across every player step, but
     created fresh per run so per-cell allocation stays deterministic (the
     parallel-sweep and bench-gate contracts compare GC deltas exactly). *)
  let ws = Workspace.create ~capacity:n () in
  let sweep_rng =
    match config.order with
    | `Round_robin -> None
    | `Random_sweep seed -> Some (Ncg_prng.Rng.create seed)
  in
  let player_order = Array.init n Fun.id in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace seen (Strategy.to_key strategy0) 0;
  let strategy = ref strategy0 in
  (* The trajectory's host graph, re-centred in place after each move;
     [Graph.borrow adj] is the current network. *)
  let adj = Graph.adjacency g0 in
  (* The awake set: players whose k-view may have changed since their
     last best response. A move by [v] changes only edges at [v], so it
     can change only the views of players within distance k + 1 of [v],
     in the graph before or after the move. When k + 1 >= n - 1 that is
     everyone, and no search is needed. *)
  let awake = Array.make n true in
  let wake_within v =
    let reached = Bfs.run ws.Workspace.bfs (Graph.borrow adj) v ~radius:(config.k + 1) in
    let order = Bfs.visit_order ws.Workspace.bfs in
    for i = 0 to reached - 1 do
      awake.(order.(i)) <- true
    done
  in
  (* Wake on the graph before the move, patch it, wake on the graph after. *)
  let apply_move strategy' v =
    if config.k >= n - 2 then begin
      Strategy.recentre strategy' adj v;
      Array.fill awake 0 n true
    end
    else begin
      wake_within v;
      Strategy.recentre strategy' adj v;
      wake_within v
    end
  in
  let features = ref [] in
  let total_moves = ref 0 in
  let moves = ref [] in
  let outcome = ref None in
  let round = ref 0 in
  (* Social cost of the current full profile, on the trajectory's BFS
     scratch — zero-allocation, so probing does not disturb the per-cell
     GC contract. NaN if the network disconnected (mirrors
     [Game.social_cost] returning [None]). *)
  let social_cost_now () =
    let g = Graph.borrow adj in
    let sum_use = ref 0 in
    let connected = ref true in
    let u = ref 0 in
    while !connected && !u < n do
      if Bfs.run ws.Workspace.bfs g !u ~radius:max_int < n then
        connected := false
      else begin
        let dist = Bfs.dist_array ws.Workspace.bfs in
        (match config.variant with
        | Game.Max ->
            let ecc = ref 0 in
            for v = 0 to n - 1 do
              if dist.(v) > !ecc then ecc := dist.(v)
            done;
            sum_use := !sum_use + !ecc
        | Game.Sum ->
            for v = 0 to n - 1 do
              sum_use := !sum_use + dist.(v)
            done);
        incr u
      end
    done;
    if !connected then
      (config.alpha *. float_of_int (Graph.size g)) +. float_of_int !sum_use
    else nan
  in
  while !outcome = None && !round < config.max_rounds do
    incr round;
    Ncg_fault.Cancel.checkpoint ();
    Ncg_obs.Histogram.(time dynamics_round) (fun () ->
        (match sweep_rng with
        | Some rng -> Ncg_prng.Rng.shuffle rng player_order
        | None -> ());
        let probing = Ncg_obs.Probe.recording () in
        let gap_max = ref 0. in
        let gap_total = ref 0. in
        let edits = ref 0 in
        let reach = ref 0 in
        let nodes0 =
          if probing then Ncg_obs.Metrics.(read set_cover_nodes) else 0
        in
        let cutoffs0 =
          if probing then
            Ncg_obs.Metrics.(read set_cover_cutoffs + read sum_bb_cutoffs)
          else 0
        in
        let changes = ref 0 in
        let solved = ref 0 in
        Array.iter
          (fun u ->
            if awake.(u) then begin
              awake.(u) <- false;
              incr solved;
              match
                Ncg_fault.Cancel.with_step_budget config.move_budget (fun () ->
                    improving_move ~ws config !strategy (Graph.borrow adj) u)
              with
              | Some (targets, old_cost, new_cost, stats) ->
                  let strategy' = Strategy.with_owned !strategy u targets in
                  let before = Strategy.owned !strategy u in
                  let after = Strategy.owned strategy' u in
                  moves :=
                    { Trace.round = !round; player = u; before; after } :: !moves;
                  if probing then begin
                    let gap = old_cost -. new_cost in
                    if gap > !gap_max then gap_max := gap;
                    gap_total := !gap_total +. gap;
                    edits := !edits + stats.edit_distance;
                    if stats.radius > !reach then reach := stats.radius
                  end;
                  apply_move strategy' u;
                  strategy := strategy';
                  incr changes;
                  incr total_moves
              | None -> ()
            end)
          player_order;
        if probing then begin
          let x = float_of_int !round in
          let sc = social_cost_now () in
          Ncg_obs.Probe.(sample social_cost) ~x sc;
          Ncg_obs.Probe.(sample awake_players) ~x (float_of_int !solved);
          Ncg_obs.Probe.(sample br_gap_max) ~x !gap_max;
          Ncg_obs.Probe.(sample br_gap_total) ~x !gap_total;
          Ncg_obs.Probe.(sample move_edit_distance) ~x (float_of_int !edits);
          Ncg_obs.Probe.(sample move_locality_radius) ~x (float_of_int !reach);
          Ncg_obs.Probe.(sample set_cover_nodes) ~x
            (float_of_int (Ncg_obs.Metrics.(read set_cover_nodes) - nodes0));
          Ncg_obs.Probe.(sample bb_cutoffs) ~x
            (float_of_int
               (Ncg_obs.Metrics.(read set_cover_cutoffs + read sum_bb_cutoffs)
               - cutoffs0))
        end;
        if config.collect_features then
          features :=
            Features.collect config.variant ~alpha:config.alpha ~k:config.k
              ~round:!round ~changes:!changes !strategy (Graph.borrow adj)
            :: !features;
        if !changes = 0 then outcome := Some (Converged !round)
        else if detect_cycles then begin
          let key = Strategy.to_key !strategy in
          match Hashtbl.find_opt seen key with
          | Some _ ->
              (* Same end-of-round profile as before: under round-robin the
                 continuation is deterministic, so the dynamics cycles. *)
              outcome := Some (Cycle_detected !round)
          | None -> Hashtbl.replace seen key !round
        end)
  done;
  Ncg_obs.Metrics.(add dynamics_rounds !round);
  Ncg_obs.Metrics.(add dynamics_moves !total_moves);
  {
    outcome = (match !outcome with Some o -> o | None -> Max_rounds_exceeded);
    final = !strategy;
    rounds = !round;
    total_moves = !total_moves;
    features = List.rev !features;
    trace = { Trace.n; moves = List.rev !moves };
  }

let run config strategy0 =
  Ncg_obs.Span.with_span "dynamics.run" (fun () -> run_untraced config strategy0)
