module Graph = Ncg_graph.Graph
module Metrics = Ncg_graph.Metrics
module Rng = Ncg_prng.Rng
module Summary = Ncg_stats.Summary

let paper_alphas =
  [ 0.025; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.7; 1.0; 1.5; 2.0; 3.0; 5.0; 7.0; 10.0 ]

let paper_ks = [ 2; 3; 4; 5; 6; 7; 10; 15; 20; 25; 30; 1000 ]

let initial_tree ~seed ~n =
  let rng = Rng.create seed in
  let g = Ncg_gen.Random_tree.generate rng n in
  Strategy.random_orientation rng g

let initial_gnp ~seed ~n ~p =
  let rng = Rng.create seed in
  let g = Ncg_gen.Erdos_renyi.connected rng ~n ~p ~max_attempts:10_000 in
  Strategy.random_orientation rng g

let initial_ba ~seed ~n ~m =
  let rng = Rng.create seed in
  let g = Ncg_gen.Barabasi_albert.generate rng ~n ~m in
  Strategy.random_orientation rng g

let initial_ws ~seed ~n ~k ~beta =
  let rng = Rng.create seed in
  let rec attempt tries =
    if tries = 0 then failwith "Experiment.initial_ws: cannot get connected sample"
    else begin
      let g = Ncg_gen.Watts_strogatz.generate rng ~n ~k ~beta in
      if Ncg_graph.Bfs.is_connected g then g else attempt (tries - 1)
    end
  in
  Strategy.random_orientation rng (attempt 1000)

type graph_stats = {
  edges : int;
  diameter : int;
  max_degree : int;
  max_bought : int;
}

let initial_stats strategy =
  let g = Strategy.graph strategy in
  let n = Strategy.n_players strategy in
  let bought = Array.init n (Strategy.bought_count strategy) in
  {
    edges = Graph.size g;
    diameter = (match Metrics.diameter g with Some d -> d | None -> -1);
    max_degree = Metrics.max_degree g;
    max_bought = Ncg_util.Arrayx.max_elt bought;
  }

type run_stats = {
  converged : bool;
  cycled : bool;
  rounds : int;
  total_moves : int;
  quality : float;
  unfairness : float;
  diameter : int;
  max_degree : int;
  max_bought : int;
  min_view : int;
  avg_view : float;
  social_cost : float;
}

let run_one (config : Dynamics.config) strategy0 =
  let result = Dynamics.run config strategy0 in
  let final = result.Dynamics.final in
  let g = Strategy.graph final in
  let n = Strategy.n_players final in
  let bought = Array.init n (Strategy.bought_count final) in
  let views = Features.view_sizes ~k:config.Dynamics.k g in
  let social_cost =
    match Game.social_cost config.Dynamics.variant ~alpha:config.Dynamics.alpha final with
    | Some c -> c
    | None -> nan
  in
  let quality =
    social_cost
    /. Game.social_optimum config.Dynamics.variant ~alpha:config.Dynamics.alpha ~n
  in
  let unfairness =
    match
      Game.unfairness config.Dynamics.variant ~alpha:config.Dynamics.alpha final g
    with
    | Some u -> u
    | None -> nan
  in
  let converged, cycled, rounds =
    match result.Dynamics.outcome with
    | Dynamics.Converged r -> (true, false, r - 1)
    | Dynamics.Cycle_detected r -> (false, true, r)
    | Dynamics.Max_rounds_exceeded -> (false, false, result.Dynamics.rounds)
  in
  {
    converged;
    cycled;
    rounds;
    total_moves = result.Dynamics.total_moves;
    quality;
    unfairness;
    diameter = (match Metrics.diameter g with Some d -> d | None -> -1);
    max_degree = Metrics.max_degree g;
    max_bought = Ncg_util.Arrayx.max_elt bought;
    min_view = Ncg_util.Arrayx.min_elt views;
    avg_view =
      float_of_int (Ncg_util.Arrayx.sum views) /. float_of_int (Array.length views);
    social_cost;
  }

(* Per-trial seeds come from a SplitMix64 stream keyed on the root
   seed: child [i] gets the stream's [i]-th output. The whole array is
   derived up front, before any fan-out, so the seed a trial sees
   depends only on [(seed, i)] — never on which domain ran it or in what
   order. *)
let derive_seeds ~seed ~count =
  let sm = Ncg_prng.Splitmix64.create (Int64.of_int seed) in
  Array.init count (fun _ -> Int64.to_int (Ncg_prng.Splitmix64.next sm))

(* --- Instrumented parallel sweeps --------------------------------------- *)

type cell = { alpha : float; k : int }

type cell_result = {
  cell : cell;
  runs : run_stats list;
  counters : Ncg_obs.Metrics.snapshot;
  histograms : Ncg_obs.Histogram.snapshot;
  probes : Ncg_obs.Probe.snapshot;
  gc : Ncg_obs.Gc_stats.snapshot;
  spans : Ncg_obs.Span.t;
  wall_ns : int64;
  started_ns : int64;
  domain : int;
}

let grid ~alphas ~ks =
  List.concat_map (fun alpha -> List.map (fun k -> { alpha; k }) ks) alphas

(* A cell's seed is a pure function of (seed, alpha, k), chained
   through SplitMix64 so nearby cells get unrelated streams. Two sweeps
   that share a cell agree on its seed whatever the rest of their grids
   look like — what lets one-shot sweeps, --only-cell and stored sweeps
   over overlapping grids all hand out the same row for a cell. *)
let cell_seed_of_cell ~seed (cell : cell) =
  let step state salt =
    Ncg_prng.Splitmix64.next (Ncg_prng.Splitmix64.create (Int64.logxor state salt))
  in
  let s0 = step (Int64.of_int seed) 0x6e63675f63656c6cL (* "ncg_cell" *) in
  let s1 = step s0 (Int64.bits_of_float cell.alpha) in
  let s2 = step s1 (Int64.of_int cell.k) in
  Int64.to_int s2

(* The live progress line: cells done/total, ETA extrapolated from the
   average cell so far, and the just-finished cell's best-response p99.
   Rendered only when stderr is an interactive TTY (or forced on), so
   tests, pipes and CI never see it. *)
let report_progress ~sweep_started ~finished ~total ~histograms =
  let elapsed =
    Ncg_obs.Clock.ns_to_s (Ncg_obs.Clock.elapsed_ns ~since:sweep_started)
  in
  let eta =
    if finished = 0 then nan
    else elapsed /. float_of_int finished *. float_of_int (total - finished)
  in
  let p99 =
    match
      List.assoc_opt
        (Ncg_obs.Histogram.name Ncg_obs.Histogram.best_response)
        histograms
    with
    | Some h when Ncg_obs.Histogram.count h > 0 ->
        Ncg_obs.Histogram.(pp_ns (p99_ns h))
    | Some _ | None -> "-"
  in
  Ncg_obs.Progress.update
    (Printf.sprintf "sweep %d/%d cells  elapsed %.1fs  eta %s  p99(best_response) %s"
       finished total elapsed
       (if Float.is_nan eta then "-" else Printf.sprintf "%.1fs" eta)
       p99)

let run_cell ?(probes = true) ~make_initial ~make_config ~trials:count
    ~cell_seed (cell : cell) =
  let started = Ncg_obs.Clock.now_ns () in
  (* The round-level probe series of the cell's exemplar trajectory
     (trial 0). One trial bounds the payload and the probing overhead
     while still being a pure function of the cell: trial 0's seed comes
     from [derive_seeds] before any fan-out, so the series are identical
     whatever [domains] is. *)
  let probe_snap = ref (Ncg_obs.Probe.empty_snapshot ()) in
  let ((runs, spans, gc, wall_ns), counters), histograms =
    (* Histogram and counter collectors are installed in the domain
       that runs the cell, so the snapshots depend only on the cell's
       own work — the determinism contract under any fan-out. The GC
       word delta likewise: Gc.counters is domain-local. *)
    Ncg_obs.Histogram.collect (fun () ->
        Ncg_obs.Metrics.collect (fun () ->
            let gc_before = Ncg_obs.Gc_stats.capture () in
            let runs, spans =
              Ncg_obs.Span.trace
                (Printf.sprintf "cell alpha=%g k=%d" cell.alpha cell.k)
                (fun () ->
                  let config = make_config cell in
                  let seeds = derive_seeds ~seed:cell_seed ~count in
                  List.init count (fun j ->
                      Ncg_obs.Span.with_span
                        (Printf.sprintf "trial %d" j)
                        (fun () ->
                          if probes && j = 0 then begin
                            let r, snap =
                              Ncg_obs.Probe.collect (fun () ->
                                  run_one config
                                    (make_initial ~seed:seeds.(j)))
                            in
                            probe_snap := snap;
                            r
                          end
                          else run_one config (make_initial ~seed:seeds.(j)))))
            in
            let gc =
              Ncg_obs.Gc_stats.diff ~before:gc_before
                ~after:(Ncg_obs.Gc_stats.capture ())
            in
            let wall_ns = Ncg_obs.Clock.elapsed_ns ~since:started in
            Ncg_obs.Histogram.record_ns Ncg_obs.Histogram.sweep_cell wall_ns;
            (runs, spans, gc, wall_ns)))
  in
  {
    cell;
    runs;
    counters;
    histograms;
    probes = !probe_snap;
    gc;
    spans;
    wall_ns;
    started_ns = started;
    domain = (Domain.self () :> int);
  }

(* --- Persistent cell cache (lib/store) ---------------------------------- *)

module Json = Ncg_obs.Json

(* Bumped on any change to the cell_result serialization below. Distinct
   from Cache_key.schema_version (the key layout); both participate in
   the key, so either bump invalidates old records. /2: the fault layer
   registered new Metrics counters (dynamics.move_steps and friends), so
   counter snapshots from /1 records would decode with different shapes
   than a recompute produces. /3: Cancel checkpoints extended into the
   set-cover solver's inner loops, so dynamics.move_steps counts differ
   from /2 whenever a step budget is active (ncg_experiment always sets
   one) — cached /2 cells would not be byte-identical to recomputes. /4:
   the CSR engine computes distance rows once per best-response call
   instead of once per radius, so bfs.calls (and the other counter
   snapshots) differ from /3 even though the CSV-visible results are
   bit-identical — a cached /3 cell would disagree with a recompute on
   the counters section. /5: the payload gained the round-level probe
   series of the exemplar trial, new branch-and-bound cutoff counters
   registered (shape change), and probing's per-round social-cost BFS
   shifts bfs.calls — /4 records would disagree with a recompute on all
   three. /6: the best-response context grows its balls by a bitset
   recurrence instead of one BFS per view vertex, so bfs.calls (and the
   allocated words) differ from /5 while the CSVs do not — a cached /5
   cell would serve stale counter snapshots to a resumed sweep. *)
let cell_payload_schema = Ncg_obs.Schema.store_cell

let run_stats_to_json (r : run_stats) =
  Json.Obj
    [
      ("converged", Json.Bool r.converged);
      ("cycled", Json.Bool r.cycled);
      ("rounds", Json.Int r.rounds);
      ("total_moves", Json.Int r.total_moves);
      ("quality", Json.Float r.quality);
      ("unfairness", Json.Float r.unfairness);
      ("diameter", Json.Int r.diameter);
      ("max_degree", Json.Int r.max_degree);
      ("max_bought", Json.Int r.max_bought);
      ("min_view", Json.Int r.min_view);
      ("avg_view", Json.Float r.avg_view);
      ("social_cost", Json.Float r.social_cost);
    ]

(* Non-finite floats serialize as null (Json.float_repr), so [null]
   reads back as NaN in the stats. *)
let run_stats_of_json j =
  let bool name = Json.field name Json.bool j in
  let int name = Json.field name Json.int j in
  let float name = Json.field name Json.number_or_null j in
  {
    converged = bool "converged";
    cycled = bool "cycled";
    rounds = int "rounds";
    total_moves = int "total_moves";
    quality = float "quality";
    unfairness = float "unfairness";
    diameter = int "diameter";
    max_degree = int "max_degree";
    max_bought = int "max_bought";
    min_view = int "min_view";
    avg_view = float "avg_view";
    social_cost = float "social_cost";
  }

let cell_result_to_json (r : cell_result) =
  Json.Obj
    [
      ("schema", Json.String cell_payload_schema);
      ("alpha", Json.Float r.cell.alpha);
      ("k", Json.Int r.cell.k);
      ("runs", Json.List (List.map run_stats_to_json r.runs));
      ("counters", Ncg_obs.Metrics.to_json r.counters);
      ("histograms", Ncg_obs.Histogram.to_json_exact r.histograms);
      ("probes", Ncg_obs.Probe.to_json r.probes);
      ("gc", Ncg_obs.Gc_stats.to_json r.gc);
      ("spans", Ncg_obs.Span.to_json_exact r.spans);
      ("wall_ns", Json.Int (Int64.to_int r.wall_ns));
      ("started_ns", Json.Int (Int64.to_int r.started_ns));
      ("domain", Json.Int r.domain);
    ]

let cell_result_of_json =
  Json.decode ~what:"cell_result_of_json" (fun j ->
      let sub name of_json = Json.field name (Json.nested of_json) j in
      let int name = Json.field name Json.int j in
      Json.schema cell_payload_schema j;
      {
        cell =
          { alpha = Json.field "alpha" Json.number_or_null j; k = int "k" };
        runs = Json.field "runs" (Json.list run_stats_of_json) j;
        counters = sub "counters" Ncg_obs.Metrics.of_json;
        histograms = sub "histograms" Ncg_obs.Histogram.of_json_exact;
        probes = sub "probes" Ncg_obs.Probe.of_json;
        gc = sub "gc" Ncg_obs.Gc_stats.of_json;
        spans = sub "spans" Ncg_obs.Span.of_json_exact;
        wall_ns = Int64.of_int (int "wall_ns");
        started_ns = Int64.of_int (int "started_ns");
        domain = int "domain";
      })

let cell_cache_key ?(probes = true) ~context ~seed ~trials ~cell_seed
    (cell : cell) =
  Ncg_store.Cache_key.make
    (context
    @ [
        ("payload_schema", Json.String cell_payload_schema);
        ("probes", Json.Bool probes);
        ("seed", Json.Int seed);
        ("alpha", Json.Float cell.alpha);
        ("k", Json.Int cell.k);
        ("trials", Json.Int trials);
        ("cell_seed", Json.Int cell_seed);
      ])

(* A record that fails to parse (schema drift, hand-edited store) is
   treated as a miss: the cell recomputes and the fresh insert
   supersedes the bad record. *)
let store_lookup store key =
  match Ncg_store.Store.lookup store key with
  | None -> None
  | Some payload ->
      Result.to_option (Result.bind (Json.of_string payload) cell_result_of_json)

let store_insert store key r =
  Ncg_store.Store.insert store key (Json.to_string (cell_result_to_json r))

type cell_failure = {
  index : int;
  cell : cell;
  cell_seed : int;
  kind : Ncg_fault.Executor.kind;
  exn_text : string;
  exn : exn;
}

let cell_failure_to_json (f : cell_failure) =
  Json.Obj
    [
      ("index", Json.Int f.index);
      ("alpha", Json.Float f.cell.alpha);
      ("k", Json.Int f.cell.k);
      ("cell_seed", Json.Int f.cell_seed);
      ("kind", Json.String (Ncg_fault.Executor.kind_to_string f.kind));
      ("error", Json.String f.exn_text);
    ]

let sweep_supervised ?(domains = 1) ?cell_deadline_ns ?store ?(store_context = []) ?(probes = true) ?cell_seeds
    ~make_initial ~make_config ~cells ~trials:count ~seed () =
  let cells = Array.of_list cells in
  let total = Array.length cells in
  let cell_seeds =
    match cell_seeds with
    | Some a ->
        if Array.length a <> total then
          invalid_arg "sweep_supervised: cell_seeds length mismatch";
        a
    | None -> Array.map (cell_seed_of_cell ~seed) cells
  in
  let keys =
    match store with
    | None -> [||]
    | Some _ ->
        Array.init total (fun i ->
            cell_cache_key ~probes ~context:store_context ~seed ~trials:count
              ~cell_seed:cell_seeds.(i) cells.(i))
  in
  (* Cached cells are resolved up front on the calling domain, before the
     fan-out: domains then only ever run cells that truly need computing,
     and hit/miss metrics land in the caller's collector. *)
  let cached =
    match store with
    | None -> [||]
    | Some s -> Array.init total (fun i -> store_lookup s keys.(i))
  in
  let sweep_started = Ncg_obs.Clock.now_ns () in
  let finished = Atomic.make 0 in
  let task ~index:i =
    let r =
      match if i < Array.length cached then cached.(i) else None with
      | Some r -> r
      | None ->
          let r =
            run_cell ~probes ~make_initial ~make_config ~trials:count
              ~cell_seed:cell_seeds.(i) cells.(i)
          in
          (* Persist as soon as the cell finishes, on the domain that ran
             it: a SIGKILL later in the sweep loses only in-flight cells.
             An insert that fails (e.g. a write error) fails the cell —
             durability is part of the cell — so it is quarantined and a
             later resume recomputes and re-appends it. *)
          (match store with Some s -> store_insert s keys.(i) r | None -> ());
          r
    in
    let done_count = Atomic.fetch_and_add finished 1 + 1 in
    report_progress ~sweep_started ~finished:done_count ~total
      ~histograms:r.histograms;
    r
  in
  let on_quarantine (_ : Ncg_fault.Executor.failure) =
    let done_count = Atomic.fetch_and_add finished 1 + 1 in
    report_progress ~sweep_started ~finished:done_count ~total
      ~histograms:[]
  in
  let outcomes =
    Ncg_fault.Executor.map ~domains ?deadline_ns:cell_deadline_ns
      ~on_quarantine task total
  in
  Ncg_obs.Progress.clear ();
  Array.to_list outcomes
  |> List.mapi (fun i outcome ->
         match outcome with
         | Ok r -> Ok r
         | Error (fl : Ncg_fault.Executor.failure) ->
             Error
               {
                 index = i;
                 cell = cells.(i);
                 cell_seed = cell_seeds.(i);
                 kind = fl.kind;
                 exn_text = fl.exn_text;
                 exn = fl.exn;
               })

let sweep_failures outcomes =
  List.filter_map (function Ok _ -> None | Error f -> Some f) outcomes

let sweep_counters results =
  Ncg_obs.Metrics.total (List.map (fun r -> r.counters) results)

let sweep_histograms results =
  Ncg_obs.Histogram.total (List.map (fun r -> r.histograms) results)

let sweep_gc results = Ncg_obs.Gc_stats.total (List.map (fun r -> r.gc) results)

let sweep_wall_ns results =
  List.fold_left (fun acc r -> Int64.add acc r.wall_ns) 0L results

let summarize f runs = Summary.of_floats (Array.of_list (List.map f runs))

let fraction p runs =
  let total = List.length runs in
  if total = 0 then nan
  else
    float_of_int (List.length (List.filter p runs)) /. float_of_int total

(* --- Row and record rendering ----------------------------------------------
   One definition each, shared by ncg_experiment, the bench and
   perfbench, so a cell's row is byte-identical on every path by
   construction — the cross-process determinism contract is a string
   equality, not a float-formatting coincidence — and every telemetry
   document carries the same per-cell record. *)

let csv_header =
  "class,n,p,alpha,k,trials,converged_frac,cycled_frac,rounds_mean,rounds_ci,\
   quality_mean,quality_ci,unfairness_mean,unfairness_ci,diameter_mean,\
   max_degree_mean,max_bought_mean,min_view_mean,avg_view_mean,social_cost_mean"

let csv_row_prefix ~graph_class ~n ~p ~trials cell =
  Printf.sprintf "%s,%d,%g,%g,%d,%d," graph_class n p cell.alpha cell.k trials

let csv_row ~graph_class ~n ~p ~trials (r : cell_result) =
  let runs = r.runs in
  let mean f = (summarize f runs).Summary.mean in
  let quality = summarize (fun r -> r.quality) runs in
  let rounds = summarize (fun r -> float_of_int r.rounds) runs in
  let unfair = summarize (fun r -> r.unfairness) runs in
  csv_row_prefix ~graph_class ~n ~p ~trials r.cell
  ^ Printf.sprintf "%.2f,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f"
    (fraction (fun r -> r.converged) runs)
    (fraction (fun r -> r.cycled) runs)
    rounds.Summary.mean rounds.Summary.ci95 quality.Summary.mean
    quality.Summary.ci95 unfair.Summary.mean unfair.Summary.ci95
    (mean (fun r -> float_of_int r.diameter))
    (mean (fun r -> float_of_int r.max_degree))
    (mean (fun r -> float_of_int r.max_bought))
    (mean (fun r -> float_of_int r.min_view))
    (mean (fun r -> r.avg_view))
    (mean (fun r -> r.social_cost))

let cell_json ~graph_class ~n ~p ~trials (r : cell_result) =
  let mean f = (summarize f r.runs).Summary.mean in
  Json.Obj
    [
      ("class", Json.String graph_class);
      ("n", Json.Int n);
      ("p", Json.Float p);
      ("alpha", Json.Float r.cell.alpha);
      ("k", Json.Int r.cell.k);
      ("trials", Json.Int trials);
      ("wall_seconds", Json.Float (Ncg_obs.Clock.ns_to_s r.wall_ns));
      ("domain", Json.Int r.domain);
      ("converged_frac", Json.Float (fraction (fun x -> x.converged) r.runs));
      ("rounds_mean", Json.Float (mean (fun x -> float_of_int x.rounds)));
      ("quality_mean", Json.Float (mean (fun x -> x.quality)));
      ("counters", Ncg_obs.Metrics.to_json r.counters);
      ("histograms", Ncg_obs.Histogram.to_json r.histograms);
      ("gc", Ncg_obs.Gc_stats.to_json r.gc);
      ("probes", Ncg_obs.Probe.to_json r.probes);
      ("spans", Ncg_obs.Span.to_json r.spans);
    ]
