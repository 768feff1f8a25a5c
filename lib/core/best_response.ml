module Graph = Ncg_graph.Graph
module Dominating_set = Ncg_solver.Dominating_set

type outcome = { targets : int list; usage : int; cost : float }

let current_usage (v : View.t) = Ncg_util.Arrayx.max_elt v.View.dist

let current_cost ~alpha (v : View.t) =
  (alpha *. float_of_int (List.length v.View.owned))
  +. float_of_int (current_usage v)

let current ~alpha (v : View.t) =
  { targets = v.View.owned; usage = current_usage v; cost = current_cost ~alpha v }

let ball_cost ~alpha (b : Ball_view.t) =
  (alpha *. float_of_int (List.length b.Ball_view.owned))
  +. float_of_int b.Ball_view.usage

let compute_ball ?ws ?(solver = `Exact) ?max_edges ?allowed ~alpha (b : Ball_view.t) =
  Ncg_obs.Histogram.(time best_response) @@ fun () ->
  Ncg_obs.Metrics.(incr best_response_calls);
  let nv = b.Ball_view.size in
  (match max_edges with
  | Some cap when List.length b.Ball_view.owned > cap ->
      invalid_arg "Best_response.compute: current strategy exceeds max_edges"
  | _ -> ());
  (match allowed with
  | Some whitelist
    when not (List.for_all (fun t -> List.mem t whitelist) b.Ball_view.owned) ->
      invalid_arg "Best_response.compute: current strategy outside allowed targets"
  | _ -> ());
  let current =
    { targets = b.Ball_view.owned; usage = b.Ball_view.usage; cost = ball_cost ~alpha b }
  in
  if nv <= 1 then current
  else begin
    (* One context serves the whole radius loop: it masks the player out
       of the ball (in the graph's own ids) and grows its balls by one
       radius as h rises. *)
    let forbidden =
      match allowed with
      | None -> []
      | Some whitelist ->
          let ok = Ncg_util.Bitset.of_list (Graph.order b.Ball_view.graph) whitelist in
          List.filter
            (fun x -> not (Ncg_util.Bitset.mem ok x))
            (Ncg_util.Bitset.to_list b.Ball_view.ball)
    in
    let cover_ws = Option.map (fun w -> w.Workspace.cover) ws in
    let dom_ws = Option.map (fun w -> w.Workspace.dom) ws in
    let ctx =
      Dominating_set.context ?ws:dom_ws ~within:b.Ball_view.ball
        ~exclude:b.Ball_view.player ~graph:b.Ball_view.graph
        ~free_dominators:b.Ball_view.in_buyers ~forbidden ()
    in
    let best = ref current in
    let h = ref 1 in
    while !h <= nv && float_of_int !h < !best.cost -. 1e-9 do
      Ncg_fault.Cancel.checkpoint ();
      Ncg_obs.Metrics.(incr best_response_radii);
      (* Cardinality cap: a solution only helps if α·|S| + h < best. *)
      let max_size =
        if alpha <= 0.0 then nv
        else begin
          let cap = (!best.cost -. float_of_int !h) /. alpha in
          if cap >= float_of_int nv then nv
          else int_of_float (ceil (cap -. 1e-9)) (* |S| <= cap *)
        end
      in
      let max_size =
        match max_edges with Some cap -> min max_size cap | None -> max_size
      in
      let radius = !h - 1 in
      let solution =
        match solver with
        | `Exact -> Dominating_set.solve_at ?ws:cover_ws ~max_size ctx ~radius
        | `Budgeted node_budget ->
            Dominating_set.solve_at ?ws:cover_ws ~max_size ~node_budget ctx ~radius
        | `Greedy -> begin
            match Dominating_set.greedy_at ?ws:cover_ws ctx ~radius with
            | Some s when List.length s <= max_size -> Some s
            | Some _ | None -> None
          end
      in
      (match solution with
      | Some chosen ->
          let cost =
            (alpha *. float_of_int (List.length chosen)) +. float_of_int !h
          in
          if cost < !best.cost -. 1e-12 then
            best := { targets = chosen; usage = !h; cost }
      | None -> ());
      incr h
    done;
    !best
  end

let compute ?ws ?solver ?max_edges ?allowed ~alpha v =
  compute_ball ?ws ?solver ?max_edges ?allowed ~alpha (Ball_view.of_view v)

let evaluate_targets ~alpha (v : View.t) targets =
  let h' = View.with_strategy v targets in
  Option.map
    (fun ecc ->
      {
        targets;
        usage = ecc;
        cost = (alpha *. float_of_int (List.length targets)) +. float_of_int ecc;
      })
    (Ncg_graph.Bfs.eccentricity h' v.View.player)

let local_search ~alpha (v : View.t) =
  let rec descend best =
    Ncg_fault.Cancel.checkpoint ();
    let improved =
      List.fold_left
        (fun acc targets ->
          match evaluate_targets ~alpha v targets with
          | Some o when o.cost < acc.cost -. 1e-12 -> o
          | Some _ | None -> acc)
        best
        (View.single_edge_moves v best.targets)
    in
    if improved.cost < best.cost -. 1e-12 then descend improved else best
  in
  descend (current ~alpha v)

let improving_ball ?ws ?solver ?(epsilon = 1e-9) ~alpha b =
  let best = compute_ball ?ws ?solver ~alpha b in
  if best.cost < ball_cost ~alpha b -. epsilon then Some best else None

let improving ?ws ?solver ?epsilon ~alpha v =
  improving_ball ?ws ?solver ?epsilon ~alpha (Ball_view.of_view v)
