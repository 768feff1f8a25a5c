module Bitset = Ncg_util.Bitset
module Graph = Ncg_graph.Graph

type problem = {
  graph : Graph.t;
  radius : int;
  free_dominators : int list;
  forbidden : int list;
}

(* Buffers of one graph order, borrowed by the live context. [sets] holds
   each vertex's live ball, or an empty set when it is forbidden. *)
type workspace = {
  mutable balls : Bitset.t array;
  mutable next : Bitset.t array;
  mutable sets : Bitset.t array;
  mutable pre : Bitset.t;
}

let create_workspace () = { balls = [||]; next = [||]; sets = [||]; pre = Bitset.create 0 }

(* A context grows the closed balls by ball_{r+1}(v) = ball_r(v) ∪
   ⋃_{u ∈ N(v)} ball_r(u) on the graph with [exclude] masked out: its ball
   stays empty in both buffers and it is never a neighbour. *)
type context = {
  ws : workspace;
  graph : Graph.t;
  exclude : int;  (* -1 when no vertex is masked *)
  mutable built_radius : int;
  mutable stable : bool;  (* the last step changed no ball *)
  free_dominators : int list;
}

let context ?scratch:_ ?(ws = create_workspace ()) ?(exclude = -1) ~graph
    ~free_dominators ~forbidden () =
  let n = Graph.order graph in
  if exclude >= n then invalid_arg "Dominating_set.context: excluded vertex out of range";
  if Bitset.capacity ws.pre <> n then begin
    let fresh () = Array.init n (fun _ -> Bitset.create n) in
    ws.balls <- fresh ();
    ws.next <- fresh ();
    ws.sets <- Array.copy ws.balls;
    ws.pre <- Bitset.create n
  end;
  let empty = Bitset.create n in
  for v = 0 to n - 1 do
    Bitset.clear ws.balls.(v);
    if v = exclude then Bitset.clear ws.next.(v) else Bitset.add ws.balls.(v) v;
    ws.sets.(v) <- ws.balls.(v)
  done;
  List.iter (fun v -> ws.sets.(v) <- empty) forbidden;
  { ws; graph; exclude; built_radius = 0; stable = false; free_dominators }

(* One radius of the recurrence into [next]; the buffers swap when some
   ball grew. A forbidden vertex's empty set lacks the vertex its ball
   holds, so that membership picks the covering sets to repoint. *)
let step ctx =
  let { balls; next; sets; _ } = ctx.ws in
  let offsets = Graph.csr_offsets ctx.graph and packed = Graph.csr_packed ctx.graph in
  let changed = ref false in
  for v = 0 to Array.length balls - 1 do
    if v <> ctx.exclude then begin
      let b = next.(v) in
      Bitset.copy_into ~into:b balls.(v);
      for i = offsets.(v) to offsets.(v + 1) - 1 do
        if packed.(i) <> ctx.exclude then Bitset.union_into ~into:b balls.(packed.(i))
      done;
      changed := !changed || not (Bitset.equal b balls.(v))
    end
  done;
  if !changed then begin
    ctx.ws.balls <- next;
    ctx.ws.next <- balls;
    for v = 0 to Array.length sets - 1 do
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
  let { balls; sets; pre; _ } = ctx.ws in
  Bitset.clear pre;
  if ctx.exclude >= 0 then Bitset.add pre ctx.exclude;
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
