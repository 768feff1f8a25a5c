module Bitset = Ncg_util.Bitset
module Graph = Ncg_graph.Graph

type problem = {
  graph : Graph.t;
  radius : int;
  free_dominators : int list;
  forbidden : int list;
}

(* Buffers of one graph order, borrowed by the live context. [sets] holds
   each member's live ball, or [empty] for a forbidden vertex and every
   vertex outside the context. [inside] is the context's members:
   [?within] minus the excluded vertex, listed in [members]. *)
type workspace = {
  mutable balls : Bitset.t array;
  mutable next : Bitset.t array;
  mutable sets : Bitset.t array;
  mutable pre : Bitset.t;
  mutable inside : Bitset.t;
  mutable empty : Bitset.t;
  mutable members : int array;
}

let create_workspace () =
  {
    balls = [||];
    next = [||];
    sets = [||];
    pre = Bitset.create 0;
    inside = Bitset.create 0;
    empty = Bitset.create 0;
    members = [||];
  }

(* A context grows the closed balls of its members by ball_{r+1}(v) =
   ball_r(v) ∪ ⋃_{u ∈ N(v)} ball_r(u). A vertex outside it keeps an empty
   ball in both buffers, so it adds nothing as a neighbour: the balls are
   those of the graph induced on [inside]. *)
type context = {
  ws : workspace;
  graph : Graph.t;
  count : int;  (* members.(0 .. count - 1) *)
  mutable built_radius : int;
  mutable stable : bool;  (* the last step changed no ball *)
  free_dominators : int list;
}

let context ?scratch:_ ?(ws = create_workspace ()) ?within ?(exclude = -1) ~graph
    ~free_dominators ~forbidden () =
  let n = Graph.order graph in
  if exclude >= n then invalid_arg "Dominating_set.context: excluded vertex out of range";
  (match within with
  | Some w when Bitset.capacity w <> n ->
      invalid_arg "Dominating_set.context: within is not over the graph's vertices"
  | _ -> ());
  if Bitset.capacity ws.pre <> n then begin
    let fresh () = Array.init n (fun _ -> Bitset.create n) in
    ws.balls <- fresh ();
    ws.next <- fresh ();
    ws.sets <- Array.copy ws.balls;
    ws.pre <- Bitset.create n;
    ws.inside <- Bitset.create n;
    ws.empty <- Bitset.create n;
    ws.members <- Array.make n 0
  end;
  let { balls; next; sets; inside; empty; members; _ } = ws in
  (match within with
  | Some w -> Bitset.copy_into ~into:inside w
  | None -> Bitset.fill inside);
  if exclude >= 0 then Bitset.remove inside exclude;
  let count = ref 0 in
  for v = 0 to n - 1 do
    Bitset.clear balls.(v);
    if Bitset.mem inside v then begin
      Bitset.add balls.(v) v;
      sets.(v) <- balls.(v);
      members.(!count) <- v;
      incr count
    end
    else begin
      Bitset.clear next.(v);
      sets.(v) <- empty
    end
  done;
  List.iter (fun v -> sets.(v) <- empty) forbidden;
  { ws; graph; count = !count; built_radius = 0; stable = false; free_dominators }

(* One radius of the recurrence into [next]; the buffers swap when some
   ball grew. A forbidden member's empty set lacks the vertex its ball
   holds, so that membership picks the covering sets to repoint. *)
let step ctx =
  let { balls; next; sets; members; _ } = ctx.ws in
  let offsets = Graph.csr_offsets ctx.graph and packed = Graph.csr_packed ctx.graph in
  let changed = ref false in
  for i = 0 to ctx.count - 1 do
    let v = members.(i) in
    let b = next.(v) in
    Bitset.copy_into ~into:b balls.(v);
    for p = offsets.(v) to offsets.(v + 1) - 1 do
      Bitset.union_into ~into:b balls.(packed.(p))
    done;
    changed := !changed || not (Bitset.equal b balls.(v))
  done;
  if !changed then begin
    ctx.ws.balls <- next;
    ctx.ws.next <- balls;
    for i = 0 to ctx.count - 1 do
      let v = members.(i) in
      if Bitset.mem sets.(v) v then sets.(v) <- next.(v)
    done
  end
  else ctx.stable <- true

let advance_to ctx radius =
  if radius < ctx.built_radius then
    invalid_arg "Dominating_set: radius below the context's built radius";
  (* Once a step changes no ball, every later radius has the same balls. *)
  while ctx.built_radius < radius && not ctx.stable do
    step ctx;
    ctx.built_radius <- ctx.built_radius + 1
  done;
  ctx.built_radius <- radius

let instance_at ctx ~radius =
  advance_to ctx radius;
  let { balls; sets; pre; inside; _ } = ctx.ws in
  Bitset.fill pre;
  Bitset.diff_into ~into:pre inside;
  List.iter (fun v -> Bitset.union_into ~into:pre balls.(v)) ctx.free_dominators;
  { Set_cover.universe = Array.length sets; sets; pre_covered = Some pre }

let of_solution (s : Set_cover.solution) = s.Set_cover.chosen

let solve_at ?ws ?max_size ?node_budget ctx ~radius =
  Option.map of_solution
    (Set_cover.solve ?ws ?max_size ?node_budget (instance_at ctx ~radius))

let greedy_at ?ws ctx ~radius =
  Option.map of_solution (Set_cover.greedy ?ws (instance_at ctx ~radius))

(* One-shot problems run through a fresh context: the same instance the
   best-response radius loop builds. *)
let instance (p : problem) =
  instance_at
    (context ~graph:p.graph ~free_dominators:p.free_dominators ~forbidden:p.forbidden ())
    ~radius:p.radius

let solve ?max_size ?node_budget p =
  Option.map of_solution (Set_cover.solve ?max_size ?node_budget (instance p))

let greedy p = Option.map of_solution (Set_cover.greedy (instance p))

let dominates p chosen = Set_cover.is_cover (instance p) chosen
