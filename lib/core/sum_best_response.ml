module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs

type outcome = { targets : int list; usage : int; cost : float }

(* Distances from the player in H' for a candidate strategy. *)
let deviation_distances (v : View.t) targets =
  let h' = View.with_strategy v targets in
  Bfs.distances h' v.View.player

let admissible (v : View.t) targets =
  let dist' = deviation_distances v targets in
  List.for_all
    (fun y -> dist'.(y) <> Bfs.unreachable && dist'.(y) <= v.View.k)
    (View.frontier v)

let usage_of_distances dist =
  let sum = ref 0 in
  let ok = ref true in
  Array.iter
    (fun d -> if d = Bfs.unreachable then ok := false else sum := !sum + d)
    dist;
  if !ok then Some !sum else None

let cost_on_view ~alpha (v : View.t) targets =
  Option.map
    (fun use -> (alpha *. float_of_int (List.length targets)) +. float_of_int use)
    (usage_of_distances (deviation_distances v targets))

let current_usage (v : View.t) = Ncg_util.Arrayx.sum v.View.dist

let current_cost ~alpha (v : View.t) =
  (alpha *. float_of_int (List.length v.View.owned))
  +. float_of_int (current_usage v)

let current_outcome ~alpha v =
  {
    targets = v.View.owned;
    usage = current_usage v;
    cost = current_cost ~alpha v;
  }

(* Evaluate one candidate: admissibility and cost in a single H' build. *)
let evaluate ~alpha (v : View.t) targets =
  let dist' = deviation_distances v targets in
  let frontier_ok =
    List.for_all
      (fun y -> dist'.(y) <> Bfs.unreachable && dist'.(y) <= v.View.k)
      (View.frontier v)
  in
  if not frontier_ok then None
  else
    Option.map
      (fun use ->
        {
          targets;
          usage = use;
          cost = (alpha *. float_of_int (List.length targets)) +. float_of_int use;
        })
      (usage_of_distances dist')

let exact ?(max_view = 16) ~alpha (v : View.t) =
  let nv = View.size v in
  let others = List.filter (fun x -> x <> v.View.player) (List.init nv Fun.id) in
  let m = List.length others in
  if m > max_view then
    invalid_arg "Sum_best_response.exact: view too large for enumeration";
  let others = Array.of_list others in
  let best = ref (current_outcome ~alpha v) in
  for mask = 0 to (1 lsl m) - 1 do
    let targets = ref [] in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then targets := others.(i) :: !targets
    done;
    match evaluate ~alpha v !targets with
    | Some o when o.cost < !best.cost -. 1e-12 -> best := o
    | Some _ | None -> ()
  done;
  !best

let local_search ~alpha (v : View.t) =
  let rec descend best =
    let improved =
      List.fold_left
        (fun acc targets ->
          match evaluate ~alpha v targets with
          | Some o when o.cost < acc.cost -. 1e-12 -> o
          | Some _ | None -> acc)
        best
        (View.single_edge_moves v best.targets)
    in
    if improved.cost < best.cost -. 1e-12 then descend improved else best
  in
  descend (current_outcome ~alpha v)

let branch_and_bound ?(max_candidates = 34) ~alpha (v : View.t) =
  let nv = View.size v in
  let candidates =
    List.filter (fun x -> x <> v.View.player) (List.init nv Fun.id)
  in
  if List.length candidates > max_candidates then
    invalid_arg "Sum_best_response.branch_and_bound: view too large";
  (* Farthest-first ordering: buying an edge to a distant vertex changes
     the distance profile the most, so deciding those first tightens the
     bound early. *)
  let candidates =
    Array.of_list
      (List.sort (fun a b -> compare v.View.dist.(b) v.View.dist.(a)) candidates)
  in
  let ncand = Array.length candidates in
  (* Incumbent: the better of the current strategy and local search. *)
  let best = ref (local_search ~alpha v) in
  (* Lower bound for completions of [included] with candidates idx..ncand-1
     undecided. Two rigorous ingredients:
     - D_opt: the distance sum when *every* undecided edge exists (more
       edges can only shorten distances); pay alpha only for [included].
     - per-candidate penalties: a completion either buys undecided c
       (pays alpha) or not — and then c's own distance is at least its
       distance with every other undecided edge present, an increase of
       delta_c over the optimistic value. The delta_c live on distinct
       vertices, so they add up. Hence LB += sum over undecided of
       min(alpha, delta_c).
     Also detects subtrees where even the optimistic completion leaves
     some view vertex unreachable (then every completion does). *)
  let completion_bound included idx =
    let optimistic = ref included in
    for j = idx to ncand - 1 do
      optimistic := candidates.(j) :: !optimistic
    done;
    let dist_all = deviation_distances v !optimistic in
    match usage_of_distances dist_all with
    | None -> None
    | Some d_opt ->
        let penalty = ref 0.0 in
        if alpha > 0.0 then
          for j = idx to ncand - 1 do
            let c = candidates.(j) in
            let without_c = List.filter (( <> ) c) !optimistic in
            let dist_wo = deviation_distances v without_c in
            let delta_c =
              if dist_wo.(c) = Ncg_graph.Bfs.unreachable then infinity
              else float_of_int (dist_wo.(c) - dist_all.(c))
            in
            penalty := !penalty +. Float.min alpha delta_c
          done;
        Some
          ((alpha *. float_of_int (List.length included))
          +. float_of_int d_opt +. !penalty)
  in
  let rec go idx included =
    Ncg_obs.Metrics.(incr sum_bb_nodes);
    if idx = ncand then begin
      match evaluate ~alpha v included with
      | Some o when o.cost < !best.cost -. 1e-12 -> best := o
      | Some _ | None -> ()
    end
    else begin
      match completion_bound included idx with
      | None -> () (* even with every undecided edge some vertex is cut *)
      | Some lb when lb >= !best.cost -. 1e-12 ->
          Ncg_obs.Metrics.(incr sum_bb_cutoffs)
      | Some _ ->
          go (idx + 1) (candidates.(idx) :: included);
          go (idx + 1) included
    end
  in
  go 0 [];
  !best

let improving ?(epsilon = 1e-9) ~alpha ~mode v =
  Ncg_obs.Histogram.(time sum_best_response) @@ fun () ->
  Ncg_obs.Metrics.(incr sum_best_response_calls);
  let best =
    match mode with
    | `Exact max_view -> exact ~max_view ~alpha v
    | `Branch_and_bound max_candidates -> branch_and_bound ~max_candidates ~alpha v
    | `Local_search -> local_search ~alpha v
  in
  if best.cost < current_cost ~alpha v -. epsilon then Some best else None
