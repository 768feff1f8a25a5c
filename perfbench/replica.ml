(* A traced replay of [Dynamics.run]'s round-robin MaxNCG loop.

   The loop is rebuilt from the engine's public calls, one per layer:
   [View.extract]; [Subgraph.induced] of H0, [Dominating_set.context]
   and [Dominating_set.solve_at] (the body of [Best_response.compute]
   with the sweep's budgeted solver); [Strategy.with_owned] plus
   [Strategy.graph] for an accepted move. Each call is timed into an
   in-memory span log, and the work it did is read from the program's
   own counters. [fence] re-runs [Dynamics.run] on the same input and
   demands the identical move trace, so the numbers describe the code
   path the sweep really takes. *)

module Graph = Ncg_graph.Graph
module Subgraph = Ncg_graph.Subgraph
module Dominating_set = Ncg_solver.Dominating_set
module Metrics = Ncg_obs.Metrics
module Strategy = Ncg.Strategy
module View = Ncg.View
module Workspace = Ncg.Workspace
module Dynamics = Ncg.Dynamics
module Trace = Ncg.Trace

type layer =
  | Trajectory
  | Graph_update
  | View_extract
  | Br_induce
  | Br_context
  | Set_cover

let layer_index = function
  | Trajectory -> 0
  | Graph_update -> 1
  | View_extract -> 2
  | Br_induce -> 3
  | Br_context -> 4
  | Set_cover -> 5

let layer_name = function
  | Trajectory -> "trajectory"
  | Graph_update -> "graph_update"
  | View_extract -> "view_extract"
  | Br_induce -> "br_induce"
  | Br_context -> "br_context"
  | Set_cover -> "set_cover"

(* Spans are children of their trajectory's [Trajectory] span and never
   of each other, so a layer's self time is its total duration. *)
let layers = [ Graph_update; View_extract; Br_induce; Br_context; Set_cover ]
let all_layers = Trajectory :: layers

(* --- Span log: struct of arrays, grown by doubling ----------------------- *)

type spans = {
  mutable len : int;
  mutable layer : int array;
  mutable traj : int array;
  mutable start : int array;
  mutable stop : int array;
}

let grow a = Array.append a (Array.make (Array.length a) 0)

let push s layer traj t0 t1 =
  if s.len = Array.length s.layer then begin
    s.layer <- grow s.layer;
    s.traj <- grow s.traj;
    s.start <- grow s.start;
    s.stop <- grow s.stop
  end;
  s.layer.(s.len) <- layer;
  s.traj.(s.len) <- traj;
  s.start.(s.len) <- t0;
  s.stop.(s.len) <- t1;
  s.len <- s.len + 1

(* Durations (ns) of every span of [layer], in recording order. *)
let durations s layer =
  let i = layer_index layer in
  let acc = ref [] in
  for j = s.len - 1 downto 0 do
    if s.layer.(j) = i then acc := (s.stop.(j) - s.start.(j)) :: !acc
  done;
  !acc

let write_spans s path =
  let names = Array.of_list (List.map layer_name all_layers) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "name\ttrajectory\tstart_ns\tend_ns\n";
      for j = 0 to s.len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%d\n" names.(s.layer.(j)) s.traj.(j)
          s.start.(j) s.stop.(j)
      done)

(* --- Work counts --------------------------------------------------------- *)

type work = {
  mutable trajectories : int;
  mutable br_calls : int;
  mutable moves : int;
  mutable rounds : int;  (** including each trajectory's final quiet round *)
  mutable quiet_calls : int;  (** best responses in final all-quiet rounds *)
  mutable view_size_sum : int;
  mutable contexts : int;
  mutable context_bfs : int;
  mutable solves : int;
  mutable bb_nodes : int;
  mutable budget_hits : int;
}

type t = { spans : spans; work : work; reverse_order : bool }

let create ?(reverse_order = false) () =
  {
    spans =
      {
        len = 0;
        layer = Array.make 4096 0;
        traj = Array.make 4096 0;
        start = Array.make 4096 0;
        stop = Array.make 4096 0;
      };
    work =
      {
        trajectories = 0;
        br_calls = 0;
        moves = 0;
        rounds = 0;
        quiet_calls = 0;
        view_size_sum = 0;
        contexts = 0;
        context_bfs = 0;
        solves = 0;
        bb_nodes = 0;
        budget_hits = 0;
      };
    reverse_order;
  }

let now () = Int64.to_int (Ncg_obs.Clock.now_ns ())

let timed t ~traj layer f =
  let t0 = now () in
  let r = f () in
  push t.spans (layer_index layer) traj t0 (now ());
  r

(* [Best_response.improving] for the [`Budgeted budget] solver, with the
   layer calls timed one by one. Returns the new targets in view
   coordinates when they beat the current cost by more than epsilon. *)
let improving t ~traj ~(ws : Workspace.t) ~(config : Dynamics.config) ~budget
    (view : View.t) =
  let w = t.work in
  let alpha = config.Dynamics.alpha in
  let nv = Graph.order view.View.graph in
  let current_cost =
    (alpha *. float_of_int (List.length view.View.owned))
    +. float_of_int (Ncg_util.Arrayx.max_elt view.View.dist)
  in
  let best_cost = ref current_cost in
  let best_targets = ref view.View.owned in
  if nv > 1 then begin
    let others =
      List.filter (fun x -> x <> view.View.player) (List.init nv Fun.id)
    in
    let h0, mapping =
      timed t ~traj Br_induce (fun () -> Subgraph.induced view.View.graph others)
    in
    let free_dominators =
      List.map (fun x -> mapping.Subgraph.to_sub.(x)) view.View.in_buyers
    in
    let bfs0 = Metrics.(read bfs_calls) in
    let ctx =
      timed t ~traj Br_context (fun () ->
          Dominating_set.context ~scratch:ws.Workspace.bfs ~ws:ws.Workspace.dom
            ~graph:h0 ~free_dominators ~forbidden:[] ())
    in
    w.contexts <- w.contexts + 1;
    w.context_bfs <- w.context_bfs + Metrics.(read bfs_calls) - bfs0;
    let h = ref 1 in
    let continue_ = ref true in
    while !continue_ && float_of_int !h < !best_cost -. 1e-9 do
      let max_size =
        if alpha <= 0.0 then nv
        else begin
          let cap = (!best_cost -. float_of_int !h) /. alpha in
          if cap >= float_of_int nv then nv else int_of_float (ceil (cap -. 1e-9))
        end
      in
      let nodes0 = Metrics.(read set_cover_nodes) in
      let solution =
        timed t ~traj Set_cover (fun () ->
            Dominating_set.solve_at ~ws:ws.Workspace.cover ~max_size
              ~node_budget:budget ctx ~radius:(!h - 1))
      in
      let nodes = Metrics.(read set_cover_nodes) - nodes0 in
      w.solves <- w.solves + 1;
      w.bb_nodes <- w.bb_nodes + nodes;
      if nodes > budget then w.budget_hits <- w.budget_hits + 1;
      (match solution with
      | Some chosen ->
          let cost = (alpha *. float_of_int (List.length chosen)) +. float_of_int !h in
          if cost < !best_cost -. 1e-12 then begin
            best_cost := cost;
            best_targets := List.map (fun x -> mapping.Subgraph.to_host.(x)) chosen
          end
      | None -> ());
      incr h;
      if !h > nv then continue_ := false
    done
  end;
  if !best_cost < current_cost -. config.Dynamics.epsilon then Some !best_targets
  else None

type outcome = {
  result : Dynamics.outcome;
  rounds : int;
  moves : Trace.move list;  (** chronological *)
}

let budget_of (config : Dynamics.config) =
  match config.Dynamics.solver with
  | `Budgeted b -> b
  | `Exact | `Greedy -> invalid_arg "Replica: only the budgeted solver is replicated"

(* One trajectory, round-robin with exact cycle detection, as
   [Dynamics.run] plays it for a MaxNCG best-response config. *)
let run t ~traj (config : Dynamics.config) strategy0 =
  let budget = budget_of config in
  let w = t.work in
  let t_start = now () in
  let n = Strategy.n_players strategy0 in
  let ws = Workspace.create ~capacity:n () in
  let order =
    Array.init n (fun i -> if t.reverse_order then n - 1 - i else i)
  in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace seen (Strategy.to_key strategy0) 0;
  let strategy = ref strategy0 in
  let g = ref (Strategy.graph strategy0) in
  let moves = ref [] in
  let outcome = ref None in
  let round = ref 0 in
  let (), _counts =
    Metrics.collect (fun () ->
        while !outcome = None && !round < config.Dynamics.max_rounds do
          incr round;
          let changes = ref 0 in
          Array.iter
            (fun u ->
              let view =
                timed t ~traj View_extract (fun () ->
                    View.extract ~scratch:ws.Workspace.bfs !strategy !g
                      ~k:config.Dynamics.k u)
              in
              w.br_calls <- w.br_calls + 1;
              w.view_size_sum <- w.view_size_sum + View.size view;
              match improving t ~traj ~ws ~config ~budget view with
              | None -> ()
              | Some targets ->
                  let before = Strategy.owned !strategy u in
                  let s', g' =
                    timed t ~traj Graph_update (fun () ->
                        let s' =
                          Strategy.with_owned !strategy u (View.to_host view targets)
                        in
                        (s', Strategy.graph s'))
                  in
                  moves :=
                    { Trace.round = !round; player = u; before; after = Strategy.owned s' u }
                    :: !moves;
                  strategy := s';
                  g := g';
                  incr changes)
            order;
          if !changes = 0 then begin
            outcome := Some (Dynamics.Converged !round);
            w.quiet_calls <- w.quiet_calls + n
          end
          else begin
            let key = Strategy.to_key !strategy in
            match Hashtbl.find_opt seen key with
            | Some _ -> outcome := Some (Dynamics.Cycle_detected !round)
            | None -> Hashtbl.replace seen key !round
          end
        done)
  in
  push t.spans (layer_index Trajectory) traj t_start (now ());
  let moves = List.rev !moves in
  w.trajectories <- w.trajectories + 1;
  w.rounds <- w.rounds + !round;
  w.moves <- w.moves + List.length moves;
  {
    result =
      (match !outcome with Some o -> o | None -> Dynamics.Max_rounds_exceeded);
    rounds = !round;
    moves;
  }

(* The trace fence: [Dynamics.run] on the same input must report the
   same outcome, round count and move trace, move for move. Also returns
   the untraced run's wall (ns): run right after the replay of the same
   input, it is the paired reference for the tracing overhead. *)
let fence config strategy0 o =
  let t0 = now () in
  let r = Dynamics.run config strategy0 in
  let wall_ns = now () - t0 in
  ( r.Dynamics.outcome = o.result
    && r.Dynamics.rounds = o.rounds
    && r.Dynamics.trace.Trace.moves = o.moves,
    wall_ns )
