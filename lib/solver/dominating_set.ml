module Bitset = Ncg_util.Bitset
module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs

type problem = {
  graph : Graph.t;
  radius : int;
  free_dominators : int list;
  forbidden : int list;
}

(* Growable row-major n×n distance-matrix buffer. A workspace may back at
   most one live context at a time (the next [context] call with the same
   workspace overwrites the matrix). *)
type workspace = { mutable matrix : int array }

let create_workspace () = { matrix = [||] }

(* A context amortises the expensive part of the best-response radius loop:
   the all-pairs distance matrix is computed once (n BFS runs, instead of n
   per radius), and the ball
   bitsets grow *incrementally* — advancing from radius r to r+1 only adds
   the vertices at exactly distance r+1 to each ball. The covering-set
   array is shared across radii: forbidden vertices point at one shared
   empty set, everything else at its live ball. *)
type context = {
  graph : Graph.t;
  n : int;
  matrix : int array;  (* matrix.(v * n + w) = d(v, w), -1 if unreachable *)
  balls : Bitset.t array;  (* closed balls at [built_radius] *)
  mutable built_radius : int;
  sets : Bitset.t array;  (* balls, with forbidden vertices masked empty *)
  free_dominators : int list;
}

let context ?scratch ?ws ~graph ~free_dominators ~forbidden () =
  let n = Graph.order graph in
  let s =
    match scratch with Some s -> s | None -> Bfs.create_scratch ~capacity:n ()
  in
  let matrix =
    match ws with
    | Some (w : workspace) ->
        if Array.length w.matrix < n * n then w.matrix <- Array.make (n * n) 0;
        w.matrix
    | None -> Array.make (n * n) 0
  in
  for v = 0 to n - 1 do
    ignore (Bfs.run s graph v ~radius:max_int);
    Array.blit (Bfs.dist_array s) 0 matrix (v * n) n
  done;
  let balls =
    Array.init n (fun v ->
        let b = Bitset.create n in
        Bitset.add b v;
        b)
  in
  let forbidden_set = Bitset.of_list n forbidden in
  let empty = Bitset.create n in
  let sets =
    Array.init n (fun v -> if Bitset.mem forbidden_set v then empty else balls.(v))
  in
  { graph; n; matrix; balls; built_radius = 0; sets; free_dominators }

let advance_to ctx radius =
  if radius < 0 then invalid_arg "Dominating_set.advance_to: negative radius";
  while ctx.built_radius < radius do
    let r = ctx.built_radius + 1 in
    for v = 0 to ctx.n - 1 do
      let base = v * ctx.n in
      let ball = ctx.balls.(v) in
      for w = 0 to ctx.n - 1 do
        if ctx.matrix.(base + w) = r then Bitset.add ball w
      done
    done;
    ctx.built_radius <- r
  done

let instance_at ctx ~radius =
  advance_to ctx radius;
  let pre = Bitset.create ctx.n in
  List.iter
    (fun v -> Bitset.union_into ~into:pre ctx.balls.(v))
    ctx.free_dominators;
  { Set_cover.universe = ctx.n; sets = ctx.sets; pre_covered = Some pre }

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
