(* ncg_certify: certify that one of the paper's lower-bound constructions
   is a Local Knowledge Equilibrium, using the exact best-response engines.
   Exits 2 when the construction is not an LKE, and on a bad option value
   (checked before any graph is built).

   Examples:
     dune exec bin/ncg_certify.exe -- cycle -n 24 -k 3 --alpha 2.5
     dune exec bin/ncg_certify.exe -- pg -q 3 --alpha 1.5
     dune exec bin/ncg_certify.exe -- torus-max --alpha 2 -k 2 --delta 8
     dune exec bin/ncg_certify.exe -- torus-sum -k 2 --alpha 33 --delta 6 *)

open Cmdliner

module Graph = Ncg_graph.Graph

let report ~name ~n ~alpha ~k ~lke ~quality ~theory =
  Printf.printf "construction : %s\n" name;
  Printf.printf "players      : %d\n" n;
  Printf.printf "alpha, k     : %g, %d\n" alpha k;
  Printf.printf "certified LKE: %b\n" lke;
  (match quality with
  | Some q -> Printf.printf "quality      : %.3f (social cost / optimum)\n" q
  | None -> Printf.printf "quality      : disconnected?!\n");
  (match theory with
  | Some (label, v) -> Printf.printf "paper bound  : %s = %.3f (constants 1)\n" label v
  | None -> ());
  if not lke then exit 2

let check checks =
  List.iter
    (fun (ok, msg) -> if not ok then Spec_cli.exit_usage ~tool:"ncg_certify" "%s" msg)
    checks

let positive_alpha alpha =
  (Float.is_finite alpha && alpha > 0., "alpha must be positive and finite")

let positive_k k = (k >= 1, "k must be at least 1")

let certify_cycle n k alpha =
  check
    [ (n >= 3, "n must be at least 3 for a cycle"); positive_k k; positive_alpha alpha ];
  let s = Ncg.Strategy.of_buys ~n (Ncg_gen.Classic.cycle_buys n) in
  report ~name:"cycle (Lemma 3.1)" ~n ~alpha ~k
    ~lke:(Ncg.Lke.is_lke_max ~alpha ~k s)
    ~quality:(Ncg.Game.quality Ncg.Game.Max ~alpha s)
    ~theory:(Some ("Omega(n/(1+alpha))", Ncg.Bounds.lb_cycle ~n ~alpha))

let certify_pg q alpha =
  check [ (Ncg_gen.Gf.is_prime q, "q must be prime"); positive_alpha alpha ];
  let g = Ncg_gen.Projective_plane.incidence q in
  let np = Ncg_gen.Projective_plane.plane_size q in
  let buys =
    List.map (fun (u, v) -> if u < np then (u, v) else (v, u)) (Graph.edges g)
  in
  let n = Graph.order g in
  let s = Ncg.Strategy.of_buys ~n buys in
  report
    ~name:(Printf.sprintf "PG(2,%d) incidence (Lemma 3.2, k=2)" q)
    ~n ~alpha ~k:2
    ~lke:(Ncg.Lke.is_lke_max ~alpha ~k:2 s)
    ~quality:(Ncg.Game.quality Ncg.Game.Max ~alpha s)
    ~theory:(Some ("Omega(sqrt n)", Ncg.Bounds.lb_girth ~n ~k:2))

let torus ~alpha ~k ~delta =
  let ell = int_of_float (ceil alpha) in
  let side = ((k + ell - 1) / ell) + 1 in
  let t = Ncg_gen.Torus_grid.closed ~d:2 ~ell ~deltas:[| side; max delta side |] in
  let n = Graph.order t.Ncg_gen.Torus_grid.graph in
  (Ncg.Strategy.of_buys ~n t.Ncg_gen.Torus_grid.buys, n)

let certify_torus_max k alpha delta =
  check [ positive_k k; positive_alpha alpha ];
  let s, n = torus ~alpha ~k ~delta in
  report ~name:"stretched torus (Theorem 3.12)" ~n ~alpha ~k
    ~lke:(Ncg.Lke.is_lke_max ~alpha ~k s)
    ~quality:(Ncg.Game.quality Ncg.Game.Max ~alpha s)
    ~theory:(Some ("Theorem 3.12 LB", Ncg.Bounds.lb_torus ~n ~alpha ~k))

let certify_torus_sum k alpha delta =
  check
    [
      ( k = 1 || k = 2,
        "torus-sum: k must be 1 or 2 (larger views are too big to certify exactly)" );
      positive_alpha alpha;
    ];
  let t = Ncg_gen.Torus_grid.closed ~d:2 ~ell:2 ~deltas:[| 2; max delta 2 |] in
  let n = Graph.order t.Ncg_gen.Torus_grid.graph in
  let s = Ncg.Strategy.of_buys ~n t.Ncg_gen.Torus_grid.buys in
  report ~name:"stretched torus (Theorem 4.2, SumNCG)" ~n ~alpha ~k
    ~lke:(Ncg.Lke.is_lke_sum_exact ~alpha ~k s)
    ~quality:(Ncg.Game.quality Ncg.Game.Sum ~alpha s)
    ~theory:(Some ("Omega(n/k)", float_of_int n /. float_of_int k))

let n_arg = Arg.(value & opt int 24 & info [ "n" ] ~doc:"Players (cycle).")
let k_arg = Arg.(value & opt int 2 & info [ "k" ] ~doc:"View radius.")
let alpha_arg = Arg.(value & opt float 2.0 & info [ "alpha"; "a" ] ~doc:"Edge price.")
let q_arg = Arg.(value & opt int 3 & info [ "q" ] ~doc:"Prime order of the plane.")
let delta_arg = Arg.(value & opt int 6 & info [ "delta" ] ~doc:"Long torus dimension.")

let cycle_cmd =
  Cmd.v (Cmd.info "cycle" ~doc:"certify the Lemma 3.1 cycle")
    Term.(const certify_cycle $ n_arg $ k_arg $ alpha_arg)

let pg_cmd =
  Cmd.v (Cmd.info "pg" ~doc:"certify the PG(2,q) incidence graph (Lemma 3.2)")
    Term.(const certify_pg $ q_arg $ alpha_arg)

let torus_max_cmd =
  Cmd.v (Cmd.info "torus-max" ~doc:"certify the Theorem 3.12 torus (MaxNCG)")
    Term.(const certify_torus_max $ k_arg $ alpha_arg $ delta_arg)

let torus_sum_cmd =
  Cmd.v (Cmd.info "torus-sum" ~doc:"certify the Theorem 4.2 torus (SumNCG)")
    Term.(const certify_torus_sum $ k_arg $ alpha_arg $ delta_arg)

let cmd =
  Cmd.group
    (Cmd.info "ncg_certify" ~doc:"certify the paper's equilibrium constructions")
    [ cycle_cmd; pg_cmd; torus_max_cmd; torus_sum_cmd ]

let () = exit (Cmd.eval cmd)
