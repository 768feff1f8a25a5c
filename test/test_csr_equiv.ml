(* Property suite fencing the CSR engine against the retained naive
   reference implementation (lib/graph/reference.ml): on arbitrary
   graphs, Graph/Bfs/Power/Subgraph must agree with the adjacency-list
   oracle exactly — same neighbour order, same distances, same renamed
   edges. A second block checks Bitset against a [bool array] model.

   These are the equivalence proofs behind the hot-path rewrite: any
   divergence here is an engine bug even if the tier-1 unit tests pass. *)

module Graph = Ncg_graph.Graph
module Bfs = Ncg_graph.Bfs
module Power = Ncg_graph.Power
module Subgraph = Ncg_graph.Subgraph
module Reference = Ncg_graph.Reference
module Bitset = Ncg_util.Bitset

(* --- Generators ----------------------------------------------------------- *)

(* Both implementations build from the same raw edge list, so the
   generator hands out (n, edges) rather than an already-built graph.
   Edges are arbitrary: duplicates, both orientations, disconnected
   graphs (no spanning tree is forced — BFS must handle unreachable
   vertices too). *)
let raw_graph_gen =
  QCheck.Gen.(
    int_range 1 30 >>= fun n ->
    int_range 0 (3 * n) >>= fun m ->
    list_repeat m (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun pairs ->
    return (n, List.filter (fun (a, b) -> a <> b) pairs))

let print_raw (n, edges) =
  Printf.sprintf "n=%d edges=[%s]" n
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) edges))

let arb_raw = QCheck.make ~print:print_raw raw_graph_gen

let build (n, edges) = (Graph.of_edges ~n edges, Reference.of_edges ~n edges)

(* --- Graph construction ---------------------------------------------------- *)

let prop_neighbors_agree =
  QCheck.Test.make ~name:"CSR neighbours = reference adjacency (order included)"
    ~count:200 arb_raw (fun raw ->
      let g, r = build raw in
      Graph.order g = Reference.order r
      && Graph.size g = Reference.size r
      && List.for_all
           (fun u -> Graph.neighbors g u = Reference.neighbors r u)
           (List.init (Graph.order g) Fun.id))

let prop_edges_agree =
  QCheck.Test.make ~name:"CSR edge list = reference edge list" ~count:200 arb_raw
    (fun raw ->
      let g, r = build raw in
      Graph.edges g = Reference.edges r)

let prop_csr_well_formed =
  QCheck.Test.make ~name:"CSR invariants: sorted segments, symmetric arcs"
    ~count:200 arb_raw (fun raw ->
      let g, _ = build raw in
      let n = Graph.order g in
      let offsets = Graph.csr_offsets g and packed = Graph.csr_packed g in
      let ok = ref (offsets.(0) = 0 && offsets.(n) = Array.length packed) in
      for u = 0 to n - 1 do
        for i = offsets.(u) to offsets.(u + 1) - 1 do
          let v = packed.(i) in
          if v < 0 || v >= n || v = u then ok := false;
          if i > offsets.(u) && packed.(i - 1) >= v then ok := false;
          if not (Graph.mem_edge g v u) then ok := false
        done
      done;
      !ok)

let prop_with_star =
  QCheck.Test.make ~name:"with_star = rebuild from scratch" ~count:200
    QCheck.(
      make
        ~print:(fun (raw, _, _) -> print_raw raw)
        QCheck.Gen.(
          raw_graph_gen >>= fun (n, edges) ->
          int_bound (n - 1) >>= fun u ->
          list_size (int_bound (min 8 (n - 1))) (int_bound (n - 1)) >>= fun star ->
          return ((n, edges), u, star)))
    (fun ((n, edges), u, star) ->
      let star =
        List.sort_uniq compare (List.filter (fun v -> v <> u) star)
      in
      let g = Graph.of_edges ~n edges in
      let fast = Graph.with_star g u (Array.of_list star) in
      let slow =
        Graph.of_edges ~n
          (List.map (fun v -> (u, v)) star
          @ List.filter (fun (a, b) -> a <> u && b <> u) (Graph.edges g))
      in
      Graph.equal fast slow)

(* --- BFS ------------------------------------------------------------------- *)

let prop_bfs_distances =
  QCheck.Test.make ~name:"BFS distances = reference BFS (all sources)" ~count:100
    arb_raw (fun raw ->
      let g, r = build raw in
      List.for_all
        (fun src -> Bfs.distances g src = Reference.distances r src)
        (List.init (Graph.order g) Fun.id))

let prop_bfs_bounded =
  QCheck.Test.make ~name:"radius-bounded BFS and balls match the reference"
    ~count:100 arb_raw (fun raw ->
      let g, r = build raw in
      let n = Graph.order g in
      List.for_all
        (fun radius ->
          List.for_all
            (fun src ->
              Bfs.distances_within g src ~radius
              = Reference.distances_within r src ~radius
              && Bfs.ball g src ~radius = Reference.ball r src ~radius)
            (List.init n Fun.id))
        [ 0; 1; 2; n ])

let prop_bfs_scratch_reuse =
  QCheck.Test.make
    ~name:"one reused scratch over every source = fresh runs (visit order sane)"
    ~count:100 arb_raw (fun raw ->
      let g, r = build raw in
      let n = Graph.order g in
      let s = Bfs.create_scratch ~capacity:n () in
      List.for_all
        (fun src ->
          let visited = Bfs.run s g src ~radius:max_int in
          let dist = Bfs.dist_array s and order = Bfs.visit_order s in
          let expect = Reference.distances r src in
          let reachable =
            Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 expect
          in
          let prefix_ok = ref (visited = reachable) in
          for i = 0 to visited - 1 do
            (* Dequeue order is by non-decreasing distance, every entry
               reachable exactly once. *)
            if dist.(order.(i)) < 0 then prefix_ok := false;
            if i > 0 && dist.(order.(i)) < dist.(order.(i - 1)) then
              prefix_ok := false
          done;
          !prefix_ok && Array.sub dist 0 n = expect)
        (List.init n Fun.id))

(* --- Power graphs and k-views ---------------------------------------------- *)

let prop_power =
  QCheck.Test.make ~name:"power graph edges = reference power edges" ~count:60
    arb_raw (fun raw ->
      let g, r = build raw in
      List.for_all
        (fun h -> Graph.edges (Power.power g h) = Reference.power_edges r h)
        [ 1; 2; 3 ])

let prop_induced =
  QCheck.Test.make ~name:"induced subgraph = reference renamed edges" ~count:100
    QCheck.(
      make
        ~print:(fun (raw, _) -> print_raw raw)
        QCheck.Gen.(
          raw_graph_gen >>= fun (n, edges) ->
          list_size (int_bound n) (int_bound (n - 1)) >>= fun verts ->
          return ((n, edges), verts)))
    (fun ((n, edges), verts) ->
      let verts = List.sort_uniq compare verts in
      let g = Graph.of_edges ~n edges and r = Reference.of_edges ~n edges in
      let sub, mapping = Subgraph.induced g verts in
      let ref_edges, ref_to_host = Reference.induced_edges r verts in
      Graph.edges sub = ref_edges && mapping.Subgraph.to_host = ref_to_host)

let prop_ball_induced =
  QCheck.Test.make ~name:"ball_induced = induced on the reference ball" ~count:100
    arb_raw (fun raw ->
      let g, r = build raw in
      let n = Graph.order g in
      let s = Bfs.create_scratch ~capacity:n () in
      List.for_all
        (fun radius ->
          List.for_all
            (fun u ->
              let sub, mapping = Subgraph.ball_induced ~scratch:s g u ~radius in
              let expect_sub, expect_map =
                Subgraph.induced g (Reference.ball r u ~radius)
              in
              Graph.equal sub expect_sub
              && mapping.Subgraph.to_host = expect_map.Subgraph.to_host)
            (List.init n Fun.id))
        [ 0; 1; 3 ])

(* --- Bitset vs bool array model --------------------------------------------- *)

(* A short program of mutations applied in lockstep to a Bitset and a
   [bool array]; after every step the full observable state must agree.
   Capacities straddle the 63-bit word boundary on purpose. *)
let prop_bitset_model =
  QCheck.Test.make ~name:"bitset ops = bool array model" ~count:200
    QCheck.(
      make
        ~print:(fun (n, ops) ->
          Printf.sprintf "n=%d ops=%d" n (List.length ops))
        QCheck.Gen.(
          int_range 1 140 >>= fun n ->
          list_size (int_range 1 40)
            (pair (int_bound 3) (int_bound (n - 1))) >>= fun ops ->
          return (n, ops)))
    (fun (n, ops) ->
      let s = Bitset.create n in
      let model = Array.make n false in
      let agree () =
        Bitset.cardinal s
        = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 model
        && Bitset.to_list s
           = List.filter (fun i -> model.(i)) (List.init n Fun.id)
        && List.for_all (fun i -> Bitset.mem s i = model.(i)) (List.init n Fun.id)
      in
      List.for_all
        (fun (op, i) ->
          (match op with
          | 0 -> (
              Bitset.add s i;
              model.(i) <- true)
          | 1 ->
              Bitset.remove s i;
              model.(i) <- false
          | 2 ->
              Bitset.fill s;
              Array.fill model 0 n true
          | _ ->
              Bitset.clear s;
              Array.fill model 0 n false);
          agree ())
        ops)

let prop_bitset_binary_ops =
  QCheck.Test.make ~name:"bitset set algebra = bool array set algebra" ~count:200
    QCheck.(
      make
        ~print:(fun (n, xs, ys) ->
          Printf.sprintf "n=%d |xs|=%d |ys|=%d" n (List.length xs) (List.length ys))
        QCheck.Gen.(
          int_range 1 140 >>= fun n ->
          list_size (int_bound 60) (int_bound (n - 1)) >>= fun xs ->
          list_size (int_bound 60) (int_bound (n - 1)) >>= fun ys ->
          return (n, xs, ys)))
    (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let ma = Array.make n false and mb = Array.make n false in
      List.iter (fun i -> ma.(i) <- true) xs;
      List.iter (fun i -> mb.(i) <- true) ys;
      let elts m = List.filter (fun i -> m.(i)) (List.init n Fun.id) in
      let count p = List.length (List.filter p (List.init n Fun.id)) in
      Bitset.to_list (Bitset.union a b)
      = elts (Array.init n (fun i -> ma.(i) || mb.(i)))
      && Bitset.to_list (Bitset.inter a b)
         = elts (Array.init n (fun i -> ma.(i) && mb.(i)))
      && Bitset.to_list (Bitset.diff a b)
         = elts (Array.init n (fun i -> ma.(i) && not mb.(i)))
      && Bitset.inter_cardinal a b = count (fun i -> ma.(i) && mb.(i))
      && Bitset.diff_cardinal a b = count (fun i -> ma.(i) && not mb.(i))
      && Bitset.subset a b
         = List.for_all (fun i -> (not ma.(i)) || mb.(i)) (List.init n Fun.id)
      && Bitset.equal a b = (elts ma = elts mb)
      && Bitset.disjoint a b = (count (fun i -> ma.(i) && mb.(i)) = 0))

let prop_bitset_scan =
  QCheck.Test.make ~name:"iter/fold/next_member agree with the model" ~count:200
    QCheck.(
      make
        ~print:(fun (n, xs) -> Printf.sprintf "n=%d |xs|=%d" n (List.length xs))
        QCheck.Gen.(
          int_range 1 140 >>= fun n ->
          list_size (int_bound 60) (int_bound (n - 1)) >>= fun xs ->
          return (n, xs)))
    (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      let sorted = List.sort_uniq compare xs in
      let collected = ref [] in
      Bitset.iter (fun i -> collected := i :: !collected) s;
      List.rev !collected = sorted
      && Bitset.fold (fun i acc -> acc + i) s 0 = List.fold_left ( + ) 0 sorted
      && List.for_all
           (fun from ->
             Bitset.next_member s from
             = Option.value ~default:(-1) (List.find_opt (fun i -> i >= from) sorted))
           (List.init (n + 1) Fun.id))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "csr_equiv"
    [
      ( "graph",
        [
          qt prop_neighbors_agree;
          qt prop_edges_agree;
          qt prop_csr_well_formed;
          qt prop_with_star;
        ] );
      ( "bfs",
        [ qt prop_bfs_distances; qt prop_bfs_bounded; qt prop_bfs_scratch_reuse ] );
      ( "power+views", [ qt prop_power; qt prop_induced; qt prop_ball_induced ] );
      ( "bitset",
        [ qt prop_bitset_model; qt prop_bitset_binary_ops; qt prop_bitset_scan ] );
    ]
