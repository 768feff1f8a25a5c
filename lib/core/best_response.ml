module Graph = Ncg_graph.Graph
module Dominating_set = Ncg_solver.Dominating_set

type outcome = { targets : int list; usage : int; cost : float }

let current_usage (v : View.t) = Ncg_util.Arrayx.max_elt v.View.dist

let current_cost ~alpha (v : View.t) =
  (alpha *. float_of_int (List.length v.View.owned))
  +. float_of_int (current_usage v)

let current ~alpha (v : View.t) =
  { targets = v.View.owned; usage = current_usage v; cost = current_cost ~alpha v }

let compute ?ws ?(solver = `Exact) ?max_edges ?allowed ~alpha (v : View.t) =
  Ncg_obs.Histogram.(time best_response) @@ fun () ->
  Ncg_obs.Metrics.(incr best_response_calls);
  let nv = Graph.order v.View.graph in
  (match max_edges with
  | Some cap when List.length v.View.owned > cap ->
      invalid_arg "Best_response.compute: current strategy exceeds max_edges"
  | _ -> ());
  (match allowed with
  | Some whitelist
    when not (List.for_all (fun t -> List.mem t whitelist) v.View.owned) ->
      invalid_arg "Best_response.compute: current strategy outside allowed targets"
  | _ -> ());
  if nv <= 1 then current ~alpha v
  else begin
    (* One context serves the whole radius loop: it masks the player out
       of the view's graph (H minus the player, in view ids) and grows
       its balls by one radius as h rises. *)
    let forbidden =
      match allowed with
      | None -> []
      | Some whitelist ->
          let ok = Ncg_util.Bitset.of_list nv whitelist in
          List.filter (fun x -> not (Ncg_util.Bitset.mem ok x)) (List.init nv Fun.id)
    in
    let cover_ws = Option.map (fun w -> w.Workspace.cover) ws in
    let dom_ws = Option.map (fun w -> w.Workspace.dom) ws in
    let ctx =
      Dominating_set.context ?ws:dom_ws ~exclude:v.View.player ~graph:v.View.graph
        ~free_dominators:v.View.in_buyers ~forbidden ()
    in
    let best = ref (current ~alpha v) in
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

let improving ?ws ?solver ?(epsilon = 1e-9) ~alpha v =
  let best = compute ?ws ?solver ~alpha v in
  if best.cost < current_cost ~alpha v -. epsilon then Some best else None
