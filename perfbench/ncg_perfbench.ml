(* The repository benchmark: one MaxNCG sweep workload per run.

   [--trace 0] times the sweep exactly as [ncg_experiment] runs it and
   prints the end-to-end metrics; [--trace 1] runs one pass, then
   replays every trajectory through {!Replica} with a span per layer
   call, checks each replay against [Dynamics.run], and prints the
   per-layer metrics. The last line of standard output is the JSON
   result; every metric is also printed by name with its unit above it.
   Exit code 1 means a trajectory failed its output check. *)

module Experiment = Ncg.Experiment
module Sweep_spec = Ncg.Sweep_spec
module Store = Ncg_store.Store
module Gc_stats = Ncg_obs.Gc_stats
module Json = Ncg_obs.Json

let now_s () = Int64.to_float (Ncg_obs.Clock.now_ns ()) *. 1e-9
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Linear interpolation between order statistics (numpy's default). *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. fi (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. fi lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* --- Options -------------------------------------------------------------- *)

let workload = ref ""
let seed = ref 2014
let seconds = ref 10.
let trace = ref 0
let size = ref Workload.Full
let digests = ref "perfbench/digests.json"
let write_digests = ref ""
let reverse_replica = ref false
let work_dir = ".perfbench"
let setup_reps = 21

let usage =
  "ncg_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME tree-local, tree-full or gnp-dense");
    ("--seed", Arg.Set_int seed, "N workload seed (default 2014)");
    ("--seconds", Arg.Set_float seconds, "S timed budget of an untraced run");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
    ( "--size",
      Arg.Symbol
        ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Workload.Tiny else Workload.Full),
      " problem size; tiny is for self-tests" );
    ("--digests", Arg.Set_string digests, "FILE committed CSV row digests");
    ("--write-digests", Arg.Set_string write_digests, "FILE record this run's row digests");
    ( "--reverse-replica",
      Arg.Set reverse_replica,
      " replay players in reverse order (self-test of the trace fence)" );
  ]

(* --- Result printing ------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-30s %16.6f %s\n" m.name m.value m.unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- Set-up ---------------------------------------------------------------

   Set-up draws every initial profile and, for a store workload, opens a
   fresh store. It runs [setup_reps] times and reports the median; the
   last repetition's inputs and store are the ones measured. *)

let fresh_store_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat work_dir
        (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !counter)
    in
    remove_tree d;
    d

let open_store (w : Workload.t) =
  if w.Workload.use_store then
    let dir = fresh_store_dir () in
    Some (dir, Store.open_dir dir)
  else None

let close_store = function
  | None -> ()
  | Some (dir, s) ->
      Store.close s;
      remove_tree dir

let setup w spec =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun (_, store) -> close_store store) !last;
    Gc.full_major ();
    let t0 = now_s () in
    let inputs = Workload.generate spec in
    let store = open_store w in
    times := (now_s () -. t0) :: !times;
    last := Some (inputs, store)
  done;
  match !last with
  | Some (inputs, store) -> (median !times, inputs, store)
  | None -> assert false

(* --- One pass and its output check ---------------------------------------- *)

type pass = {
  outcomes : (Experiment.cell_result, Experiment.cell_failure) result list;
  wall_s : float;
  alloc_words : float;
  rows : string option array;  (** CSV row per cell, [None] if it failed *)
}

let run_pass ?store inputs =
  let gc0 = Gc_stats.capture () in
  let t0 = now_s () in
  let outcomes = Workload.sweep ?store inputs in
  let wall_s = now_s () -. t0 in
  let gc = Gc_stats.diff ~before:gc0 ~after:(Gc_stats.capture ()) in
  let rows =
    Array.of_list
      (List.map
         (function
           | Ok r -> Some (Sweep_spec.csv_row inputs.Workload.spec r)
           | Error _ -> None)
         outcomes)
  in
  { outcomes; wall_s; alloc_words = Gc_stats.allocated_words gc; rows }

(* Per cell: is every trajectory's output right? A cell fails as a whole
   when it was quarantined (a raise or the move budget), when a run is
   implausible, when its row differs from the first pass's, or when it
   differs from the committed digest. *)
let cell_ok inputs ~expected ~reference i outcome row =
  let trials = inputs.Workload.spec.Sweep_spec.trials in
  let label = Workload.cell_label inputs.Workload.cells.(i) in
  match (outcome, row) with
  | Ok (r : Experiment.cell_result), Some row ->
      List.length r.Experiment.runs = trials
      && List.for_all Workload.plausible r.Experiment.runs
      && (match reference with Some rows -> rows.(i) = Some row | None -> true)
      && (match expected with
         | None -> true
         | Some digests -> List.assoc_opt label digests = Some (Workload.row_digest row))
  | _ -> false

let check_pass inputs ~expected ~reference p =
  let trials = inputs.Workload.spec.Sweep_spec.trials in
  let failed = ref 0 in
  List.iteri
    (fun i outcome ->
      if not (cell_ok inputs ~expected ~reference i outcome p.rows.(i)) then begin
        failed := !failed + trials;
        Printf.printf "  output check FAILED: cell %s\n"
          (Workload.cell_label inputs.Workload.cells.(i))
      end)
    p.outcomes;
  !failed

let print_rows inputs p =
  Array.iteri
    (fun i row ->
      Option.iter
        (fun row ->
          Printf.printf "  row %s md5 %s\n"
            (Workload.cell_label inputs.Workload.cells.(i))
            (Workload.row_digest row))
        row)
    p.rows

(* Per-trajectory wall times (ms) from the [trial j] spans each cell
   result carries, keyed by (cell index, trial index). *)
let trial_walls p =
  List.concat
    (List.mapi
       (fun i outcome ->
         match outcome with
         | Ok (r : Experiment.cell_result) ->
             List.mapi
               (fun j (s : Ncg_obs.Span.t) ->
                 ((i, j), Int64.to_float s.Ncg_obs.Span.elapsed_ns /. 1e6))
               r.Experiment.spans.Ncg_obs.Span.children
         | Error _ -> [])
       p.outcomes)

(* Each trajectory's fastest wall over the passes. A shared host's speed
   drifts: on a 2-vCPU VM a fixed CPU loop timed back to back varied by
   up to 2.5x between repeats. That noise only ever slows a trajectory
   down, so the best of a few repeats spread in time is the steadiest
   estimate of its cost. Over 8 seeds of tree-full on that VM, the IQR
   of throughput was 21% of the median from single passes and 5% from
   best-of-3 walls. *)
let best_walls passes =
  let best = Hashtbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun (key, ms) ->
          match Hashtbl.find_opt best key with
          | Some b when b <= ms -> ()
          | _ -> Hashtbl.replace best key ms)
        (trial_walls p))
    passes;
  List.sort compare (Hashtbl.fold (fun key ms acc -> (key, ms) :: acc) best [])

(* A trajectory percentile, taken within each cell and combined by
   geometric mean over the cells. Cells differ in typical trajectory
   time by up to 20x, so a percentile of the pooled trajectories falls
   in the gap between two cells' clusters and jumps with every input
   draw; within a cell it sits where the samples are dense. *)
let cell_percentile q walls =
  let cells = List.sort_uniq compare (List.map (fun ((i, _), _) -> i) walls) in
  let logs =
    List.map
      (fun c ->
        log
          (percentile q
             (List.filter_map (fun ((i, _), ms) -> if i = c then Some ms else None) walls)))
      cells
  in
  exp (ratio (List.fold_left ( +. ) 0. logs) (fi (List.length logs)))

let expected_digests w spec =
  let e = Workload.expected_digests ~file:!digests w spec in
  (match e with
  | Some d -> Printf.printf "  digests: checking %d rows against %s\n" (List.length d) !digests
  | None -> Printf.printf "  digests: none recorded for this seed and size\n");
  e

let record_digests w inputs p =
  let rows =
    List.concat
      (List.mapi
         (fun i row ->
           match row with
           | Some row -> [ (Workload.cell_label inputs.Workload.cells.(i), row) ]
           | None -> [])
         (Array.to_list p.rows))
  in
  let others =
    match
      try Some (In_channel.with_open_bin !write_digests In_channel.input_all)
      with Sys_error _ -> None
    with
    | Some s -> (
        match Json.of_string s with
        | Ok (Json.Obj fields) -> List.remove_assoc w.Workload.name fields
        | _ -> [])
    | None -> []
  in
  let entries =
    List.sort compare (Workload.digests_entry w inputs.Workload.spec rows :: others)
  in
  Json.to_file !write_digests (Json.Obj entries);
  Printf.printf "  digests: wrote %d rows to %s\n" (List.length rows) !write_digests

(* --- Untraced run: end-to-end metrics --------------------------------------- *)

let min_passes = 3

let end_to_end w spec =
  let setup_s, inputs, store = setup w spec in
  let expected = expected_digests w spec in
  let trials_per_pass = Workload.trajectories inputs in
  let rec loop store acc elapsed =
    let p = run_pass ?store:(Option.map snd store) inputs in
    close_store store;
    let acc = p :: acc and elapsed = elapsed +. p.wall_s in
    if List.length acc < min_passes || elapsed +. p.wall_s <= !seconds then
      loop (open_store w) acc elapsed
    else List.rev acc
  in
  let passes = loop store [] 0. in
  print_rows inputs (List.hd passes);
  let reference = Some (List.hd passes).rows in
  let failed =
    List.fold_left
      (fun acc p -> acc + check_pass inputs ~expected ~reference p)
      0 passes
  in
  if !write_digests <> "" then record_digests w inputs (List.hd passes);
  let attempted = trials_per_pass * List.length passes in
  let best = best_walls passes in
  (* The sweep's own cost outside the trajectories (collectors, store
     appends, CSV statistics), per pass. *)
  let overhead_ms =
    median
      (List.map
         (fun p ->
           (p.wall_s *. 1e3)
           -. List.fold_left (fun a (_, ms) -> a +. ms) 0. (trial_walls p))
         passes)
  in
  let best_s = (List.fold_left (fun a (_, ms) -> a +. ms) 0. best +. overhead_ms) /. 1e3 in
  let alloc = List.fold_left (fun a p -> a +. p.alloc_words) 0. passes in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let per_cell = List.length best / Array.length inputs.Workload.cells in
  let beyond = per_cell - int_of_float (ceil (0.9 *. fi per_cell)) in
  Printf.printf
    "  %d passes over %d trajectories, %.2f s timed; best-of-%d sweep %.2f s \
     (%.1f ms outside trajectories)\n"
    (List.length passes) trials_per_pass
    (List.fold_left (fun a p -> a +. p.wall_s) 0. passes)
    (List.length passes) best_s overhead_ms;
  Printf.printf
    "  trajectory percentiles: per cell over %d samples (%d beyond p90%s), \
     geometric mean over %d cells\n"
    per_cell beyond
    (if beyond < 10 then ", fewer than ten: p90 is indicative" else "")
    (Array.length inputs.Workload.cells);
  Printf.printf "  failed_frac %d/%d = %.4f\n" failed attempted
    (ratio (fi failed) (fi attempted));
  let metrics =
    [
      {
        name = "trajectories_per_s";
        value = fi (List.length best) /. best_s;
        unit = "1/s";
      };
      { name = "trajectory_ms_p50"; value = cell_percentile 0.5 best; unit = "ms" };
      { name = "trajectory_ms_p90"; value = cell_percentile 0.9 best; unit = "ms" };
      {
        name = "alloc_mwords_per_traj";
        value = alloc /. fi attempted /. 1e6;
        unit = "Mwords";
      };
      {
        name = "peak_heap_mb";
        value = fi (top_heap * (Sys.word_size / 8)) /. 1e6;
        unit = "MB";
      };
      { name = "setup_s"; value = setup_s; unit = "s" };
    ]
  in
  (attempted, failed, metrics)

(* --- Traced run: per-layer metrics -------------------------------------------- *)

(* Store layer: a fresh store, each cell inserted and then looked up
   straight away; the lookup must decode to the same CSV row. *)
let store_layer inputs p =
  let dir = fresh_store_dir () in
  let store = Store.open_dir dir in
  let ins = ref [] and look = ref [] and bytes = ref [] and bad = ref 0 in
  List.iteri
    (fun i outcome ->
      match outcome with
      | Error _ -> ()
      | Ok r ->
          let key = Workload.cell_key inputs i in
          let size0 = Store.log_size store in
          let t0 = now_s () in
          Experiment.store_insert store key r;
          let t1 = now_s () in
          let back = Experiment.store_lookup store key in
          let t2 = now_s () in
          ins := (t1 -. t0) :: !ins;
          look := (t2 -. t1) :: !look;
          bytes := fi (Store.log_size store - size0) :: !bytes;
          let row = Option.map (Sweep_spec.csv_row inputs.Workload.spec) back in
          if row <> p.rows.(i) then incr bad)
    p.outcomes;
  Store.close store;
  remove_tree dir;
  let mean xs = ratio (List.fold_left ( +. ) 0. xs) (fi (List.length xs)) in
  (mean !ins *. 1e3, mean !look *. 1e3, mean !bytes, !bad)

let per_layer w spec =
  let _setup_s, inputs, store = setup w spec in
  let expected = expected_digests w spec in
  let p = run_pass ?store:(Option.map snd store) inputs in
  close_store store;
  print_rows inputs p;
  let failed = ref (check_pass inputs ~expected ~reference:None p) in
  let attempted = Workload.trajectories inputs in
  let insert_ms, lookup_ms, bytes, store_bad = store_layer inputs p in
  if store_bad > 0 then begin
    Printf.printf "  output check FAILED: %d cells did not round-trip the store\n" store_bad;
    failed := !failed + (store_bad * spec.Sweep_spec.trials)
  end;
  let replica = Replica.create ~reverse_order:!reverse_replica () in
  let mismatches = ref 0 in
  let untraced_ns = ref 0 in
  Array.iteri
    (fun i (cell : Experiment.cell) ->
      let config = Sweep_spec.make_config spec cell in
      Array.iteri
        (fun j seed ->
          let profile = Workload.make_initial inputs ~seed in
          let traj = (i * spec.Sweep_spec.trials) + j in
          let o = Replica.run replica ~traj config profile in
          let same, ns = Replica.fence config profile o in
          untraced_ns := !untraced_ns + ns;
          if not same then begin
            incr mismatches;
            Printf.printf "  trace fence FAILED: cell %s trial %d\n"
              (Workload.cell_label cell) j
          end)
        inputs.Workload.trial_seeds.(i))
    inputs.Workload.cells;
  failed := min attempted (!failed + !mismatches);
  let spans_file =
    Filename.concat work_dir
      (Printf.sprintf "spans-%s-seed%d.tsv" w.Workload.name spec.Sweep_spec.seed)
  in
  Replica.write_spans replica.Replica.spans spans_file;
  Printf.printf "  spans written to %s\n" spans_file;
  let wk = replica.Replica.work in
  let nt = fi wk.Replica.trajectories in
  let sum_ns layer =
    fi (List.fold_left ( + ) 0 (Replica.durations replica.Replica.spans layer))
  in
  let total_ns = sum_ns Replica.Trajectory in
  let ms_per_traj layer = sum_ns layer /. nt /. 1e6 in
  let share layer = ratio (sum_ns layer) total_ns in
  let attributed = List.fold_left (fun a l -> a +. sum_ns l) 0. Replica.layers in
  let solve_us =
    List.map (fun ns -> fi ns /. 1e3) (Replica.durations replica.Replica.spans Replica.Set_cover)
  in
  let m name value unit = { name; value; unit } in
  let per_traj x = fi x /. nt in
  let metrics =
    [
      m "graph_update.ms_per_traj" (ms_per_traj Replica.Graph_update) "ms";
      m "graph_update.share" (share Replica.Graph_update) "ratio";
      m "graph_update.calls_per_traj" (per_traj wk.Replica.moves) "count";
      m "dynamics.br_calls_per_traj" (per_traj wk.Replica.br_calls) "count";
      m "dynamics.moves_per_traj" (per_traj wk.Replica.moves) "count";
      m "dynamics.rounds_per_traj" (per_traj wk.Replica.rounds) "count";
      m "dynamics.useful_frac" (ratio (fi wk.Replica.moves) (fi wk.Replica.br_calls)) "ratio";
      m "dynamics.quiet_round_frac"
        (ratio (fi wk.Replica.quiet_calls) (fi wk.Replica.br_calls))
        "ratio";
      m "view_extract.ms_per_traj" (ms_per_traj Replica.View_extract) "ms";
      m "view_extract.share" (share Replica.View_extract) "ratio";
      m "view_extract.calls_per_traj" (per_traj wk.Replica.br_calls) "count";
      m "view_extract.size_mean"
        (ratio (fi wk.Replica.view_size_sum) (fi wk.Replica.br_calls))
        "vertices";
      m "br_induce.ms_per_traj" (ms_per_traj Replica.Br_induce) "ms";
      m "br_induce.share" (share Replica.Br_induce) "ratio";
      m "br_context.ms_per_traj" (ms_per_traj Replica.Br_context) "ms";
      m "br_context.share" (share Replica.Br_context) "ratio";
      m "br_context.bfs_per_call"
        (ratio (fi wk.Replica.context_bfs) (fi wk.Replica.contexts))
        "count";
      m "br_context.radii_per_call"
        (ratio (fi wk.Replica.solves) (fi wk.Replica.contexts))
        "count";
      m "set_cover.ms_per_traj" (ms_per_traj Replica.Set_cover) "ms";
      m "set_cover.share" (share Replica.Set_cover) "ratio";
      m "set_cover.solves_per_traj" (per_traj wk.Replica.solves) "count";
      m "set_cover.nodes_per_solve"
        (ratio (fi wk.Replica.bb_nodes) (fi wk.Replica.solves))
        "count";
      m "set_cover.solve_us_p50" (median solve_us) "us";
      m "set_cover.solve_us_p99" (percentile 0.99 solve_us) "us";
      m "set_cover.budget_hit_frac"
        (ratio (fi wk.Replica.budget_hits) (fi wk.Replica.solves))
        "ratio";
      m "store.insert_ms_per_cell" insert_ms "ms";
      m "store.lookup_hit_ms_per_cell" lookup_ms "ms";
      m "store.bytes_per_cell" bytes "B";
      m "traced.unattributed_frac" (1. -. ratio attributed total_ns) "ratio";
      m "traced.overhead_frac"
        (ratio total_ns (fi !untraced_ns) -. 1.)
        "ratio";
    ]
  in
  Printf.printf "  %d trajectories replayed, %d trace mismatches\n"
    wk.Replica.trajectories !mismatches;
  (attempted, !failed, metrics)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "ncg_perfbench: unknown workload %S\n%!" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    Printf.eprintf "ncg_perfbench: --trace must be 0 or 1\n%!";
    exit 2
  end;
  ensure_dir work_dir;
  let spec = Workload.spec w ~size:!size ~seed:!seed in
  Printf.printf "workload %s  seed %d  class %s  n=%d  %d cells x %d trials  trace %d\n%!"
    w.Workload.name !seed spec.Sweep_spec.graph_class spec.Sweep_spec.n
    (List.length (Sweep_spec.cells spec))
    spec.Sweep_spec.trials !trace;
  let attempted, failed, metrics =
    if !trace = 1 then per_layer w spec else end_to_end w spec
  in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
