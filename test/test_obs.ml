(* Tests for the observability library: JSON emitter/parser, counters,
   spans, latency histograms, GC deltas, progress line. *)

module Json = Ncg_obs.Json
module Metrics = Ncg_obs.Metrics
module Span = Ncg_obs.Span
module Histogram = Ncg_obs.Histogram
module Gc_stats = Ncg_obs.Gc_stats
module Progress = Ncg_obs.Progress

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec at i = i + m <= n && (String.sub s i m = affix || at (i + 1)) in
  at 0

(* --- Json ---------------------------------------------------------------- *)

let test_json_scalars () =
  check_string "null" "null" (Json.to_string Json.Null);
  check_string "true" "true" (Json.to_string (Json.Bool true));
  check_string "int" "-42" (Json.to_string (Json.Int (-42)));
  check_string "float" "1.5" (Json.to_string (Json.Float 1.5));
  check_string "float int-valued gets a dot" "2.0" (Json.to_string (Json.Float 2.0));
  check_string "nan is null" "null" (Json.to_string (Json.Float nan));
  check_string "inf is null" "null" (Json.to_string (Json.Float infinity))

let test_json_escaping () =
  check_string "quotes and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.String {|a"b\c|}));
  check_string "newline" {|"a\nb"|} (Json.to_string (Json.String "a\nb"));
  check_string "control char" "\"\\u0001\"" (Json.to_string (Json.String "\x01"))

let test_json_structures () =
  check_string "list" "[1,2]" (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]));
  check_string "empty obj" "{}" (Json.to_string (Json.Obj []));
  check_string "obj"
    {|{"a":1,"b":[true]}|}
    (Json.to_string
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true ]) ]));
  (* Pretty form parses back to the same compact content modulo whitespace. *)
  let v = Json.Obj [ ("xs", Json.List [ Json.Int 1 ]); ("s", Json.String "q") ] in
  let strip s =
    String.concat ""
      (String.split_on_char '\n'
         (String.concat "" (String.split_on_char ' ' s)))
  in
  check_string "pretty == compact modulo layout" (Json.to_string v)
    (strip (Json.to_string_pretty v))

(* --- Metrics ------------------------------------------------------------- *)

let test_counters_noop_without_collector () =
  check_bool "not recording" false (Metrics.recording ());
  (* Must be a no-op, not a crash. *)
  Metrics.incr Metrics.bfs_calls;
  Metrics.add Metrics.set_cover_nodes 5;
  check_bool "still not recording" false (Metrics.recording ())

let test_collect_basic () =
  let (), snap =
    Metrics.collect (fun () ->
        check_bool "recording inside" true (Metrics.recording ());
        Metrics.incr Metrics.bfs_calls;
        Metrics.incr Metrics.bfs_calls;
        Metrics.add Metrics.dynamics_moves 3)
  in
  check_int "bfs twice" 2 (List.assoc "bfs.calls" snap);
  check_int "moves" 3 (List.assoc "dynamics.moves" snap);
  check_int "untouched is zero" 0 (List.assoc "dynamics.rounds" snap);
  check_bool "recording off after" false (Metrics.recording ())

let test_collect_nests () =
  let (inner_snap, ()), outer_snap =
    Metrics.collect (fun () ->
        Metrics.incr Metrics.bfs_calls;
        let inner =
          Metrics.collect (fun () ->
              Metrics.incr Metrics.bfs_calls;
              Metrics.incr Metrics.bfs_calls)
        in
        (snd inner, ()))
  in
  check_int "inner sees its own" 2 (List.assoc "bfs.calls" inner_snap);
  check_int "outer accumulates inner" 3 (List.assoc "bfs.calls" outer_snap)

let test_collect_restores_on_exception () =
  (try
     ignore (Metrics.collect (fun () -> raise Exit));
     Alcotest.fail "expected Exit"
   with Exit -> ());
  check_bool "collector uninstalled after raise" false (Metrics.recording ())

let test_register_idempotent () =
  let a = Metrics.register "test.some_counter" in
  let b = Metrics.register "test.some_counter" in
  check_bool "same slot" true (a == b || Metrics.name a = Metrics.name b);
  check_string "name round-trips" "test.some_counter" (Metrics.name a)

let test_merge_and_total () =
  let a = [ ("x", 1); ("y", 2) ] and b = [ ("y", 40); ("z", 5) ] in
  let m = Metrics.merge a b in
  check_int "x" 1 (List.assoc "x" m);
  check_int "y summed" 42 (List.assoc "y" m);
  check_int "z" 5 (List.assoc "z" m);
  check_int "total of none is empty" 0 (List.length (Metrics.total []));
  let t = Metrics.total [ a; b; a ] in
  check_int "total y" 44 (List.assoc "y" t)

let test_instrumented_code_counts () =
  let g = Ncg_gen.Classic.path 6 in
  let (), snap = Metrics.collect (fun () -> ignore (Ncg_graph.Bfs.distances g 0)) in
  check_int "one bfs" 1 (List.assoc "bfs.calls" snap);
  let json = Json.to_string (Metrics.to_json snap) in
  check_bool "json has the counter" true
    (contains ~affix:"\"bfs.calls\":1" json)

let test_metrics_codec_roundtrip () =
  (* to_json drops zero counters; of_json re-expands them over the
     registry, so snapshots restore exactly — the property store-cached
     sweep cells rely on. *)
  let (), snap =
    Metrics.collect (fun () ->
        Metrics.incr Metrics.bfs_calls;
        Metrics.add Metrics.dynamics_moves 7)
  in
  check_bool "snapshot round-trips" true (Metrics.of_json (Metrics.to_json snap) = Ok snap);
  check_bool "empty snapshot round-trips" true
    (let (), z = Metrics.collect (fun () -> ()) in
     Metrics.of_json (Metrics.to_json z) = Ok z);
  check_bool "non-object rejected" true
    (match Metrics.of_json (Json.List []) with Error _ -> true | Ok _ -> false)

(* --- Span ---------------------------------------------------------------- *)

let test_span_noop_outside_trace () =
  check_bool "inactive" false (Span.active ());
  check_int "with_span is transparent" 7 (Span.with_span "s" (fun () -> 7))

let test_trace_tree () =
  let result, root =
    Span.trace "root" (fun () ->
        check_bool "active inside" true (Span.active ());
        let a = Span.with_span "a" (fun () -> 1) in
        let b =
          Span.with_span "b" (fun () -> Span.with_span "b.1" (fun () -> 2))
        in
        a + b)
  in
  check_int "result" 3 result;
  check_string "root name" "root" root.Span.span_name;
  check_int "two children" 2 (List.length root.Span.children);
  check_string "order preserved" "a" (List.nth root.Span.children 0).Span.span_name;
  check_int "span count" 4 (Span.count root);
  check_bool "find nested" true (Span.find root "b.1" <> None);
  check_bool "find missing" true (Span.find root "zzz" = None);
  check_bool "durations non-negative" true
    (root.Span.elapsed_ns >= 0L
    && List.for_all (fun c -> c.Span.elapsed_ns >= 0L) root.Span.children);
  check_bool "inactive after" false (Span.active ())

let test_trace_exception_restores () =
  (try
     ignore (Span.trace "boom" (fun () -> raise Exit));
     Alcotest.fail "expected Exit"
   with Exit -> ());
  check_bool "inactive after raise" false (Span.active ());
  (* A failing child is dropped; the trace itself survives. *)
  let (), root =
    Span.trace "root" (fun () ->
        try Span.with_span "bad" (fun () -> raise Exit) with Exit -> ())
  in
  check_int "failed span dropped" 0 (List.length root.Span.children)

let test_span_export () =
  let (), root = Span.trace "r" (fun () -> Span.with_span "c" (fun () -> ())) in
  let json = Json.to_string (Span.to_json root) in
  check_bool "json mentions child" true (contains ~affix:{|"name":"c"|} json);
  let md = Span.to_markdown root in
  check_bool "markdown indents child" true
    (contains ~affix:"\n  - c:" md)

let test_span_exact_codec () =
  let (), root =
    Span.trace "r" (fun () ->
        Span.with_span "a" (fun () -> Span.with_span "a.1" (fun () -> ()));
        Span.with_span "b" (fun () -> ()))
  in
  check_bool "tree round-trips with timings" true
    (Span.of_json_exact (Span.to_json_exact root) = Ok root);
  check_bool "plain to_json is lossy (no started_ns) and is rejected" true
    (match Span.of_json_exact (Span.to_json root) with
    | Error _ -> true
    | Ok _ -> false)

(* The timeline a telemetry document draws from a span tree: every child
   interval lies inside its parent's, and siblings run in start order
   without overlapping. *)
let rec check_timeline_nesting (s : Span.t) =
  let stop (x : Span.t) = Int64.add x.Span.started_ns x.Span.elapsed_ns in
  ignore
    (List.fold_left
       (fun prev_stop (c : Span.t) ->
         check_bool
           (Printf.sprintf "%s starts inside %s" c.Span.span_name s.Span.span_name)
           true
           (c.Span.started_ns >= s.Span.started_ns);
         check_bool
           (Printf.sprintf "%s ends inside %s" c.Span.span_name s.Span.span_name)
           true
           (stop c <= stop s);
         check_bool
           (Printf.sprintf "%s starts after its previous sibling" c.Span.span_name)
           true
           (c.Span.started_ns >= prev_stop);
         check_timeline_nesting c;
         stop c)
       s.Span.started_ns s.Span.children)

let test_span_timeline_nesting () =
  let (), root =
    Span.trace "cell" (fun () ->
        Span.with_span "trial 0" (fun () ->
            Span.with_span "dynamics.run" (fun () -> ()));
        Span.with_span "trial 1" (fun () ->
            Span.with_span "dynamics.run" (fun () -> ())))
  in
  check_int "cell, 2 trials, 2 runs" 5 (Span.count root);
  check_timeline_nesting root;
  (* The exact codec keeps the absolute starts the timeline is drawn from. *)
  match Span.of_json_exact (Span.to_json_exact root) with
  | Ok back -> check_timeline_nesting back
  | Error e -> Alcotest.fail e

(* --- Json.of_string ------------------------------------------------------ *)

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_parse_scalars () =
  check_bool "null" true (parse_ok "null" = Json.Null);
  check_bool "true" true (parse_ok " true " = Json.Bool true);
  check_bool "int" true (parse_ok "-42" = Json.Int (-42));
  check_bool "float" true (parse_ok "1.5" = Json.Float 1.5);
  check_bool "exponent is float" true (parse_ok "2e3" = Json.Float 2000.0);
  check_bool "string" true (parse_ok {|"hi"|} = Json.String "hi")

let test_parse_structures () =
  check_bool "list" true (parse_ok "[1, 2]" = Json.List [ Json.Int 1; Json.Int 2 ]);
  check_bool "empty obj" true (parse_ok " {} " = Json.Obj []);
  check_bool "nested" true
    (parse_ok {|{"a":[true,null],"b":{"c":1}}|}
    = Json.Obj
        [
          ("a", Json.List [ Json.Bool true; Json.Null ]);
          ("b", Json.Obj [ ("c", Json.Int 1) ]);
        ])

let test_parse_escapes () =
  check_bool "simple escapes" true
    (parse_ok {|"a\"b\\c\nd\te"|} = Json.String "a\"b\\c\nd\te");
  check_bool "u escape" true (parse_ok {|"\u0041"|} = Json.String "A");
  check_bool "u escape control" true (parse_ok {|"\u0001"|} = Json.String "\x01");
  check_bool "2-byte utf8" true (parse_ok {|"\u00e9"|} = Json.String "\xc3\xa9");
  check_bool "raw non-ascii bytes pass through" true
    (parse_ok "\"\xc3\xa9\"" = Json.String "\xc3\xa9");
  check_bool "surrogate pair" true
    (parse_ok {|"\ud83d\ude00"|} = Json.String "\xf0\x9f\x98\x80")

let test_parse_errors () =
  let fails s = match Json.of_string s with Ok _ -> false | Error _ -> true in
  check_bool "empty" true (fails "");
  check_bool "garbage" true (fails "flase");
  check_bool "trailing" true (fails "1 2");
  check_bool "unterminated string" true (fails {|"abc|});
  check_bool "raw control char" true (fails "\"a\x01b\"");
  check_bool "lone surrogate" true (fails {|"\ud83d"|});
  check_bool "unclosed list" true (fails "[1,")

(* Any byte string survives emit -> parse: quotes, backslashes, control
   chars (escaped as \u00XX) and non-ASCII bytes (passed through raw). *)
let prop_string_roundtrip =
  QCheck.Test.make ~name:"emitted strings round-trip through of_string"
    ~count:1000
    QCheck.(string_gen Gen.(map Char.chr (int_range 0 255)))
    (fun s -> Json.of_string (Json.to_string (Json.String s)) = Ok (Json.String s))

(* Whole documents round-trip too (floats kept finite and away from the
   int/float rendering ambiguity by construction). *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float (Float.of_int f +. 0.5)) (int_range (-1000) 1000);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then scalar
          else
            frequency
              [
                (2, scalar);
                (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
                ( 1,
                  map
                    (fun kvs ->
                      (* Object keys must be unique for equality to hold. *)
                      Json.Obj
                        (List.mapi (fun i (k, v) -> (Printf.sprintf "%d%s" i k, v)) kvs)
                      )
                    (list_size (int_range 0 4)
                       (pair (string_size ~gen:printable (int_range 0 6)) (self (n / 2))))
                );
              ])
        (min n 6))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"documents round-trip through of_string" ~count:500
    (QCheck.make ~print:(fun v -> Json.to_string v) json_gen)
    (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string_pretty v) = Ok v)

(* of_string is total: any byte string — valid, garbage, or binary — comes
   back as Ok or Error, never an exception. The store treats a parse
   failure as a cache miss, so an exception here would crash a resume on
   a half-written record instead of recomputing the cell. *)
let never_raises s =
  match Json.of_string s with Ok _ -> true | Error _ -> true | exception _ -> false

let prop_of_string_never_raises =
  QCheck.Test.make ~name:"of_string never raises on arbitrary bytes" ~count:2000
    QCheck.(string_gen Gen.(map Char.chr (int_range 0 255)))
    never_raises

(* Truncations of well-formed documents are the shapes a torn record log
   tail actually produces. *)
let prop_of_string_never_raises_truncated =
  QCheck.Test.make ~name:"of_string never raises on truncated documents"
    ~count:500
    QCheck.(
      pair (make ~print:(fun v -> Json.to_string v) json_gen) (int_range 0 1000))
    (fun (v, cut) ->
      let s = Json.to_string v in
      never_raises (String.sub s 0 (min cut (String.length s))))

(* Every document one edit away from [doc]: one object member dropped, or
   one value anywhere (the root included) replaced by a value of some
   other shape. *)
let rec mutations doc =
  let replace_nth items i v = List.mapi (fun j x -> if j = i then v else x) items in
  let inside =
    match doc with
    | Json.Obj fields ->
        List.concat
          (List.mapi
             (fun i (key, v) ->
               let put v' = Json.Obj (replace_nth fields i (key, v')) in
               Json.Obj (List.filteri (fun j _ -> j <> i) fields)
               :: List.map put (mutations v))
             fields)
    | Json.List items ->
        List.concat
          (List.mapi
             (fun i v ->
               List.map (fun v' -> Json.List (replace_nth items i v')) (mutations v))
             items)
    | _ -> []
  in
  Json.[ Null; Bool true; String "x"; List []; Obj []; Int (-1); Int 0; Int 1 ] @ inside

(* The decoders' contract (json.mli): on any document they return [Ok]
   or [Error], never raise. Exhaustive over the one-edit neighbourhood of
   a valid encoding of each, so it is deterministic. *)
let test_decoders_never_raise () =
  let module Sweep_spec = Ncg.Sweep_spec in
  let spec =
    {
      Sweep_spec.default with
      Sweep_spec.graph_class = "tree";
      n = 6;
      alphas = [ 1.0 ];
      ks = [ 2 ];
      trials = 1;
      seed = 3;
    }
  in
  let r = Sweep_spec.run_cell spec (List.hd (Sweep_spec.cells spec)) in
  let series = Ncg_obs.Timeseries.create ~capacity:4 () in
  List.iteri
    (fun i y -> Ncg_obs.Timeseries.push series ~x:(float_of_int i) y)
    [ 1.; nan; infinity; 2.; 3. ];
  let case name encoding decode =
    (name, encoding, fun j -> Result.map ignore (decode j))
  in
  let cases =
    [
      case "Metrics" (Metrics.to_json r.Ncg.Experiment.counters) Metrics.of_json;
      case "Histogram exact"
        (Histogram.to_json_exact r.Ncg.Experiment.histograms)
        Histogram.of_json_exact;
      case "Probe" (Ncg_obs.Probe.to_json r.Ncg.Experiment.probes) Ncg_obs.Probe.of_json;
      case "Timeseries" (Ncg_obs.Timeseries.to_json series) Ncg_obs.Timeseries.of_json;
      case "Gc_stats" (Gc_stats.to_json r.Ncg.Experiment.gc) Gc_stats.of_json;
      case "Span exact" (Span.to_json_exact r.Ncg.Experiment.spans) Span.of_json_exact;
      case "cell result" (Ncg.Experiment.cell_result_to_json r)
        Ncg.Experiment.cell_result_of_json;
    ]
  in
  List.iter
    (fun (name, encoding, decode) ->
      (match decode encoding with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: valid encoding rejected: %s" name e);
      List.iter
        (fun doc ->
          match decode doc with
          | Ok () | Error _ -> ()
          | exception e ->
              Alcotest.failf "%s raised %s on %s" name (Printexc.to_string e)
                (Json.to_string doc))
        (mutations encoding))
    cases

(* --- Histogram ----------------------------------------------------------- *)

let us = 1_000L (* 1µs in ns *)

let test_hist_noop_without_collector () =
  check_bool "not recording" false (Histogram.recording ());
  Histogram.record_ns Histogram.best_response 5_000L;
  check_int "time is transparent" 9 (Histogram.(time set_cover) (fun () -> 9));
  check_bool "still not recording" false (Histogram.recording ())

let test_hist_buckets () =
  check_int "zero in underflow" 0 (Histogram.bucket_of_ns 0L);
  check_int "99ns in underflow" 0 (Histogram.bucket_of_ns 99L);
  check_bool "100ns leaves underflow" true (Histogram.bucket_of_ns 100L > 0);
  let b = Histogram.boundaries in
  check_bool "boundaries strictly increase" true
    (Array.for_all2 (fun x y -> Int64.compare x y < 0)
       (Array.sub b 0 (Array.length b - 1))
       (Array.sub b 1 (Array.length b - 1)));
  (* ~2 buckets per octave: doubling a duration moves up exactly 2. *)
  check_int "sqrt2 spacing" (Histogram.bucket_of_ns 3_200L)
    (Histogram.bucket_of_ns 1_600L + 2);
  check_bool "monotonic" true
    (Histogram.bucket_of_ns 1_000_000L <= Histogram.bucket_of_ns 1_000_001L);
  check_int "huge in overflow" (Histogram.bucket_count - 1)
    (Histogram.bucket_of_ns Int64.max_int)

let test_hist_collect_and_percentiles () =
  let (), snap =
    Histogram.collect (fun () ->
        for _ = 1 to 99 do
          Histogram.record_ns Histogram.best_response us
        done;
        Histogram.record_ns Histogram.best_response (Int64.mul 1_000L us))
  in
  let h = List.assoc (Histogram.name Histogram.best_response) snap in
  check_int "count" 100 (Histogram.count h);
  check_bool "max is the outlier" true (Histogram.max_ns h = Int64.mul 1_000L us);
  check_bool "sum at least 199us" true (Histogram.sum_ns h >= Int64.mul 199L us);
  (* Bucketed percentiles are conservative within one sqrt(2) bucket. *)
  let p50 = Histogram.p50_ns h and p99 = Histogram.p99_ns h in
  check_bool "p50 covers 1us" true (p50 >= 1_000. && p50 <= 1_500.);
  check_bool "p99 still in the bulk" true (p99 >= 1_000. && p99 <= 1_500.);
  check_bool "p100 is the outlier bucket" true
    (Histogram.percentile_ns h 1.0 >= 1_000_000.);
  check_bool "empty percentile is nan" true
    (Float.is_nan (Histogram.p50_ns Histogram.empty_hist));
  check_bool "mean between the modes" true
    (Histogram.mean_ns h > 1_000. && Histogram.mean_ns h < 1_000_000.)

let prop_hist_percentiles_ordered =
  (* Log-uniform durations from 1ns to ~1s, so samples land in every
     bucket regime, including the underflow and near-boundary ones. *)
  let sample = QCheck.Gen.(int_range 0 30 >>= fun e -> int_bound (1 lsl e)) in
  QCheck.Test.make ~name:"p50 <= p90 <= p99 <= max" ~count:500
    QCheck.(make Gen.(list_size (int_range 1 60) sample))
    (fun samples ->
      let (), snap =
        Histogram.collect (fun () ->
            List.iter
              (fun ns -> Histogram.record_ns Histogram.best_response (Int64.of_int ns))
              samples)
      in
      let h = List.assoc (Histogram.name Histogram.best_response) snap in
      let p50 = Histogram.p50_ns h
      and p90 = Histogram.p90_ns h
      and p99 = Histogram.p99_ns h in
      p50 <= p90 && p90 <= p99 && p99 <= Int64.to_float (Histogram.max_ns h))

let test_hist_time_and_nesting () =
  let ((), inner), outer =
    Histogram.collect (fun () ->
        Histogram.(time set_cover) (fun () ->
            Histogram.collect (fun () ->
                Histogram.(time set_cover) (fun () -> ());
                Histogram.(time best_response) (fun () -> ()))))
  in
  let count name snap = Histogram.count (List.assoc name snap) in
  check_int "inner set_cover" 1 (count "set_cover.solve.latency" inner);
  check_int "inner best_response" 1 (count "best_response.latency" inner);
  (* Outer sees its own sample plus the folded inner ones. *)
  check_int "outer set_cover" 2 (count "set_cover.solve.latency" outer);
  check_int "outer best_response" 1 (count "best_response.latency" outer);
  check_bool "collector uninstalled" false (Histogram.recording ())

let test_hist_merge_total () =
  let snap n v =
    snd
      (Histogram.collect (fun () ->
           for _ = 1 to n do
             Histogram.record_ns Histogram.dynamics_round v
           done))
  in
  let a = snap 2 us and b = snap 3 (Int64.mul 8L us) in
  let m = Histogram.merge a b in
  let h = List.assoc "dynamics.round.latency" m in
  check_int "merged count" 5 (Histogram.count h);
  check_bool "merged max" true (Histogram.max_ns h = Int64.mul 8L us);
  let t = Histogram.total [ a; b; a ] in
  check_int "total count" 7 (Histogram.count (List.assoc "dynamics.round.latency" t));
  check_int "total of none is empty" 0 (List.length (Histogram.total []));
  check_bool "counts_only lists every histogram" true
    (List.mem ("dynamics.round.latency", 5) (Histogram.counts_only m)
    && List.mem ("best_response.latency", 0) (Histogram.counts_only m))

let test_hist_exception_safety () =
  (try
     ignore (Histogram.collect (fun () -> raise Exit));
     Alcotest.fail "expected Exit"
   with Exit -> ());
  check_bool "collector uninstalled after raise" false (Histogram.recording ())

let test_hist_export () =
  let (), snap =
    Histogram.collect (fun () ->
        Histogram.record_ns Histogram.sweep_cell (Int64.mul 2_000L us))
  in
  let json = Json.to_string (Histogram.to_json snap) in
  check_bool "json parses" true (Json.of_string json = Ok (Histogram.to_json snap));
  check_bool "json has the histogram" true
    (contains ~affix:"\"experiment.sweep_cell.latency\"" json);
  check_bool "zero-sample histograms dropped from json" false
    (contains ~affix:"best_response.latency" json);
  check_bool "markdown has a row" true
    (contains ~affix:"experiment.sweep_cell.latency" (Histogram.to_markdown snap));
  check_string "pp_ns ms" "2.00ms" (Histogram.pp_ns 2.0e6);
  check_string "pp_ns nan" "-" (Histogram.pp_ns nan)

let test_hist_exact_codec () =
  let (), snap =
    Histogram.collect (fun () ->
        Histogram.record_ns Histogram.best_response 1_500L;
        Histogram.record_ns Histogram.best_response 3_000_000L;
        Histogram.record_ns Histogram.sweep_cell 42L)
  in
  check_bool "snapshot round-trips including empty histograms" true
    (Histogram.of_json_exact (Histogram.to_json_exact snap) = Ok snap);
  (* A bucket-scheme change must invalidate, not misread. *)
  let truncated =
    match Histogram.to_json_exact snap with
    | Json.Obj ((name, Json.Obj fields) :: rest) ->
        let fields =
          List.map
            (function
              | "counts", Json.List (_ :: tl) -> ("counts", Json.List tl)
              | kv -> kv)
            fields
        in
        Json.Obj ((name, Json.Obj fields) :: rest)
    | _ -> Alcotest.fail "unexpected exact-export shape"
  in
  check_bool "wrong bucket count rejected" true
    (match Histogram.of_json_exact truncated with Error _ -> true | Ok _ -> false)

(* --- Gc_stats ------------------------------------------------------------ *)

let test_gc_measure () =
  let xs, d = Gc_stats.measure (fun () -> List.init 10_000 (fun i -> (i, i))) in
  check_int "work happened" 10_000 (List.length xs);
  check_bool "allocated counted" true (Gc_stats.allocated_words d > 10_000.0);
  check_bool "minor nonneg" true (d.Gc_stats.minor_words >= 0.0)

let test_gc_arithmetic () =
  let a =
    {
      Gc_stats.minor_words = 10.0;
      promoted_words = 4.0;
      major_words = 6.0;
      minor_collections = 1;
      major_collections = 0;
      compactions = 0;
    }
  in
  let sum = Gc_stats.add a a in
  check_bool "add doubles" true (sum.Gc_stats.minor_words = 20.0);
  check_bool "allocated = minor + major - promoted" true
    (Gc_stats.allocated_words a = 12.0);
  check_bool "diff inverts add" true (Gc_stats.diff ~before:a ~after:sum = a);
  check_bool "total" true
    ((Gc_stats.total [ a; a; a ]).Gc_stats.minor_collections = 3);
  check_bool "zero is neutral" true (Gc_stats.add a Gc_stats.zero = a);
  let json = Json.to_string (Gc_stats.to_json a) in
  check_bool "json parses" true (Result.is_ok (Json.of_string json));
  check_bool "json leads with allocated_words" true
    (contains ~affix:{|{"allocated_words":12.0|} json);
  (* The codec restores the raw fields (allocated_words is derived). *)
  check_bool "snapshot round-trips" true (Gc_stats.of_json (Gc_stats.to_json a) = Ok a);
  check_bool "non-object rejected" true
    (match Gc_stats.of_json Json.Null with Error _ -> true | Ok _ -> false)

(* --- Progress line -------------------------------------------------------- *)

let test_progress_auto_suppression () =
  (* Under the test runner stderr is a pipe, so the TTY autodetection
     must have left the live progress line disabled from process start.
     (Guarded: a human running the binary on a real terminal is exempt.) *)
  if not (Unix.isatty Unix.stderr) then
    check_bool "auto-suppressed when stderr is not a TTY" false
      (Progress.enabled ())

let test_progress_toggle () =
  (* Forced off: progress must be inert (we cannot assert TTY rendering
     in a test harness, but the toggle and the no-op path must work). *)
  Progress.set_enabled false;
  check_bool "disabled" false (Progress.enabled ());
  Progress.update "should not appear";
  Progress.clear ();
  Progress.set_enabled true;
  check_bool "forced on" true (Progress.enabled ());
  Progress.set_enabled false

(* --- Timeseries ----------------------------------------------------------- *)

module Timeseries = Ncg_obs.Timeseries
module Probe = Ncg_obs.Probe

let ts_of ?capacity ys =
  let t = Timeseries.create ?capacity () in
  List.iteri (fun i y -> Timeseries.push t ~x:(float_of_int i) y) ys;
  t

let test_ts_basic () =
  let t = Timeseries.create ~capacity:4 () in
  check_bool "empty" true (Timeseries.is_empty t);
  Timeseries.push t ~x:0. 10.;
  Timeseries.push t ~x:1. 11.;
  check_int "length" 2 (Timeseries.length t);
  check_int "stride 1 before overflow" 1 (Timeseries.stride t);
  check_bool "last" true (Timeseries.last t = Some (1., 11.));
  Timeseries.push t ~x:2. 12.;
  Timeseries.push t ~x:3. 13.;
  Timeseries.push t ~x:4. 14.;
  check_bool "bounded" true (Timeseries.length t <= 4);
  check_int "pushed counts everything" 5 (Timeseries.pushed t);
  check_bool "stride doubled" true (Timeseries.stride t > 1);
  (* The decimation invariant: retained sample i is push index i*stride. *)
  List.iteri
    (fun i (x, _) ->
      check_bool "x = i * stride" true
        (x = float_of_int (i * Timeseries.stride t)))
    (Timeseries.to_list t);
  Alcotest.check_raises "capacity < 2 rejected"
    (Invalid_argument "Timeseries.create: capacity must be >= 2") (fun () ->
      ignore (Timeseries.create ~capacity:1 ()))

let ts_capacity_and_ys_gen =
  QCheck.(pair (int_range 2 17) (list_of_size Gen.(int_range 0 120) float))

let prop_ts_capacity_bound =
  QCheck.Test.make ~name:"length <= capacity after every push" ~count:300
    ts_capacity_and_ys_gen (fun (capacity, ys) ->
      let t = Timeseries.create ~capacity () in
      List.for_all
        (fun y ->
          Timeseries.push t ~x:(float_of_int (Timeseries.pushed t)) y;
          Timeseries.length t <= capacity)
        ys)

let prop_ts_deterministic =
  QCheck.Test.make ~name:"downsampling is deterministic" ~count:200
    ts_capacity_and_ys_gen (fun (capacity, ys) ->
      Timeseries.equal (ts_of ~capacity ys) (ts_of ~capacity ys))

let prop_ts_order_preserving =
  QCheck.Test.make
    ~name:"retained samples are an ordered subsequence of the pushes" ~count:200
    ts_capacity_and_ys_gen (fun (capacity, ys) ->
      let t = ts_of ~capacity ys in
      let xs = List.map fst (Timeseries.to_list t) in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      let stride = float_of_int (Timeseries.stride t) in
      increasing xs
      && List.for_all
           (fun x -> Float.rem x stride = 0. && x < float_of_int (List.length ys))
           xs)

let ts_weird_gen =
  let open QCheck.Gen in
  let y =
    frequency
      [
        (8, float);
        (1, return nan);
        (1, return infinity);
        (1, return neg_infinity);
      ]
  in
  pair (int_range 2 9) (list_size (int_range 0 50) y)

let prop_ts_codec_roundtrip =
  QCheck.Test.make ~name:"JSON codec round-trips exactly (NaN-safe)" ~count:300
    (QCheck.make
       ~print:(fun (cap, ys) ->
         Printf.sprintf "capacity=%d ys=[%s]" cap
           (String.concat "; " (List.map (Printf.sprintf "%h") ys)))
       ts_weird_gen)
    (fun (capacity, ys) ->
      let t = ts_of ~capacity ys in
      match Timeseries.of_json (Timeseries.to_json t) with
      | Ok t' -> Timeseries.equal t t'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* Past its capacity a series decimates; its JSON decoding must still be
   structurally equal, backing arrays included, because cell records
   holding probe series are compared with [compare] after a store round
   trip. Capacity 64 and 5 (odd) both decimate several times here. *)
let test_ts_decimated_codec_compare () =
  List.iter
    (fun capacity ->
      let ys = List.init 300 (fun i -> if i = 7 then nan else float_of_int (i * i)) in
      let t = ts_of ~capacity ys in
      check_bool "decimated" true (Timeseries.stride t > 1);
      match Timeseries.of_json (Timeseries.to_json t) with
      | Ok t' -> check_bool "compare = 0" true (compare t t' = 0)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [ 64; 5 ]

(* --- Probe ---------------------------------------------------------------- *)

let test_probe_registry () =
  let names = Probe.names () in
  check_bool "built-ins registered" true
    (List.mem "dynamics.social_cost" names && List.mem "solver.bb_cutoffs" names);
  check_string "name" "dynamics.social_cost" (Probe.name Probe.social_cost);
  check_bool "find" true (Probe.find "dynamics.social_cost" = Some Probe.social_cost);
  check_bool "find unknown" true (Probe.find "dynamics.nope" = None)

let test_probe_collect () =
  check_bool "not recording outside" false (Probe.recording ());
  Probe.sample Probe.social_cost ~x:0. 1.0;
  (* no-op, not a crash *)
  let (), snap =
    Probe.collect (fun () ->
        check_bool "recording inside" true (Probe.recording ());
        Probe.sample Probe.social_cost ~x:1. 42.;
        Probe.sample Probe.social_cost ~x:2. 41.;
        Probe.sample Probe.awake_players ~x:1. 3.)
  in
  check_bool "recording off after" false (Probe.recording ());
  check_int "snapshot covers the whole registry"
    (List.length (Probe.names ()))
    (List.length snap);
  check_int "two social-cost samples" 2
    (Timeseries.length (List.assoc "dynamics.social_cost" snap));
  check_int "one awake sample" 1
    (Timeseries.length (List.assoc "dynamics.awake_players" snap));
  check_bool "unsampled probes are empty series" true
    (Timeseries.is_empty (List.assoc "solver.bb_cutoffs" snap));
  check_bool "snapshot codec round-trips" true
    (match Probe.of_json (Probe.to_json snap) with
    | Ok s -> Probe.equal_snapshot snap s
    | Error _ -> false);
  check_bool "empty snapshot codec round-trips" true
    (match Probe.of_json (Probe.to_json (Probe.empty_snapshot ())) with
    | Ok s -> Probe.equal_snapshot (Probe.empty_snapshot ()) s
    | Error _ -> false)

let test_probe_nesting_shadows () =
  let (((), inner), outer) =
    Probe.collect (fun () ->
        Probe.sample Probe.social_cost ~x:0. 5.;
        Probe.collect (fun () -> Probe.sample Probe.social_cost ~x:0. 7.))
  in
  let sc snap = Timeseries.to_list (List.assoc "dynamics.social_cost" snap) in
  check_bool "inner saw only its own sample" true (sc inner = [ (0., 7.) ]);
  (* Series do not merge on exit: the outer collector keeps exactly what
     it recorded itself. *)
  check_bool "outer unchanged by inner" true (sc outer = [ (0., 5.) ])

let test_probe_lazy () =
  let evaluated = ref false in
  Probe.sample_lazy Probe.social_cost ~x:0. (fun () ->
      evaluated := true;
      1.0);
  check_bool "lazy thunk skipped without a collector" false !evaluated;
  let (), snap =
    Probe.collect (fun () ->
        Probe.sample_lazy Probe.social_cost ~x:0. (fun () ->
            evaluated := true;
            9.0))
  in
  check_bool "lazy thunk ran under a collector" true !evaluated;
  check_bool "and recorded" true
    (Timeseries.to_list (List.assoc "dynamics.social_cost" snap) = [ (0., 9.0) ])

(* --- Registry ------------------------------------------------------------- *)

module Registry = Ncg_obs.Registry

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_register_main_domain_only () =
  (* Registered names, so only the domain check can make these raise. *)
  let off_main f = Domain.join (Domain.spawn (fun () -> raises_invalid f)) in
  check_bool "Metrics.register" true (off_main (fun () -> Metrics.register "bfs.calls"));
  check_bool "Histogram.register" true
    (off_main (fun () -> Histogram.register "set_cover.solve.latency"));
  check_bool "Probe.register" true
    (off_main (fun () -> Probe.register "dynamics.social_cost"))

let test_registry_slots () =
  let r = Registry.create "test" ~capacity:2 in
  let a = Registry.register r "a" in
  let b = Registry.register r "b" in
  check_bool "dense slots in registration order" true (a = 0 && b = 1);
  check_int "idempotent" a (Registry.register r "a");
  check_bool "full registry raises" true
    (raises_invalid (fun () -> Registry.register r "c"));
  check_bool "empty name raises" true (raises_invalid (fun () -> Registry.register r ""));
  check_bool "names" true (Registry.names r = [ "a"; "b" ]);
  check_string "name" "b" (Registry.name r b);
  check_bool "find" true (Registry.find r "b" = Some b && Registry.find r "c" = None);
  check_int "count" 2 (Registry.count r);
  check_int "capacity" 2 (Registry.capacity r)

let test_registry_snapshot_order () =
  let r = Registry.create "test" ~capacity:4 in
  List.iter (fun n -> ignore (Registry.register r n)) [ "a"; "b"; "c" ];
  let check_snap = Alcotest.(check (list (pair string int))) in
  check_snap "merge: registered first, then unknown names in input order"
    [ ("a", 4); ("b", 7); ("y", 7); ("x", 3) ]
    (Registry.merge r ~combine:( + )
       [ ("y", 1); ("b", 2) ]
       [ ("x", 3); ("a", 4); ("b", 5); ("y", 6) ]);
  check_snap "expand: registered with defaults, then unknown names in input order"
    [ ("a", 0); ("b", 0); ("c", 2); ("y", 1); ("x", 3) ]
    (Registry.expand r ~default:(fun () -> 0) [ ("y", 1); ("c", 2); ("x", 3) ])

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "no-op without collector" `Quick
            test_counters_noop_without_collector;
          Alcotest.test_case "collect" `Quick test_collect_basic;
          Alcotest.test_case "nesting accumulates" `Quick test_collect_nests;
          Alcotest.test_case "exception safety" `Quick
            test_collect_restores_on_exception;
          Alcotest.test_case "register idempotent" `Quick test_register_idempotent;
          Alcotest.test_case "merge/total" `Quick test_merge_and_total;
          Alcotest.test_case "instrumented code counts" `Quick
            test_instrumented_code_counts;
          Alcotest.test_case "exact codec round-trip" `Quick
            test_metrics_codec_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "no-op outside trace" `Quick test_span_noop_outside_trace;
          Alcotest.test_case "tree shape" `Quick test_trace_tree;
          Alcotest.test_case "exception safety" `Quick test_trace_exception_restores;
          Alcotest.test_case "export" `Quick test_span_export;
          Alcotest.test_case "exact codec round-trip" `Quick test_span_exact_codec;
        ] );
      (* The group name is 12 characters, as wide as the retired
         chrome_trace group's, so alcotest truncates long test names in
         this file at the same column and their ids stay stable. *)
      ( "span nesting",
        [
          Alcotest.test_case "cell > trial > run timeline" `Quick
            test_span_timeline_nesting;
        ] );
      ( "json parser",
        [
          Alcotest.test_case "scalars" `Quick test_parse_scalars;
          Alcotest.test_case "structures" `Quick test_parse_structures;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_of_string_never_raises;
          QCheck_alcotest.to_alcotest prop_of_string_never_raises_truncated;
          Alcotest.test_case "decoders never raise on one-edit mutations" `Quick
            test_decoders_never_raise;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "no-op without collector" `Quick
            test_hist_noop_without_collector;
          Alcotest.test_case "bucket scheme" `Quick test_hist_buckets;
          Alcotest.test_case "collect and percentiles" `Quick
            test_hist_collect_and_percentiles;
          QCheck_alcotest.to_alcotest prop_hist_percentiles_ordered;
          Alcotest.test_case "time and nesting" `Quick test_hist_time_and_nesting;
          Alcotest.test_case "merge/total" `Quick test_hist_merge_total;
          Alcotest.test_case "exception safety" `Quick test_hist_exception_safety;
          Alcotest.test_case "export" `Quick test_hist_export;
          Alcotest.test_case "exact codec round-trip" `Quick test_hist_exact_codec;
        ] );
      ( "gc_stats",
        [
          Alcotest.test_case "measure" `Quick test_gc_measure;
          Alcotest.test_case "arithmetic and export" `Quick test_gc_arithmetic;
        ] );
      (* The group keeps its old name so the test ids stay stable. *)
      ( "events",
        [
          Alcotest.test_case "progress auto-suppression" `Quick
            test_progress_auto_suppression;
          Alcotest.test_case "progress toggle" `Quick test_progress_toggle;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "push / decimate / invariants" `Quick test_ts_basic;
          QCheck_alcotest.to_alcotest prop_ts_capacity_bound;
          QCheck_alcotest.to_alcotest prop_ts_deterministic;
          QCheck_alcotest.to_alcotest prop_ts_order_preserving;
          QCheck_alcotest.to_alcotest prop_ts_codec_roundtrip;
          Alcotest.test_case "decimated series: codec round trip, compare = 0" `Quick
            test_ts_decimated_codec_compare;
        ] );
      ( "probe",
        [
          Alcotest.test_case "registry" `Quick test_probe_registry;
          Alcotest.test_case "collect + codec" `Quick test_probe_collect;
          Alcotest.test_case "nesting shadows" `Quick test_probe_nesting_shadows;
          Alcotest.test_case "lazy sampling" `Quick test_probe_lazy;
        ] );
      ( "registry",
        [
          Alcotest.test_case "register is main-domain only" `Quick
            test_register_main_domain_only;
          Alcotest.test_case "slots, idempotence, capacity" `Quick test_registry_slots;
          Alcotest.test_case "merge/expand order" `Quick test_registry_snapshot_order;
        ] );
    ]
