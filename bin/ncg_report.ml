(* ncg_report: the one reader of a sweep's telemetry. It reports on any
   telemetry document with a per-cell "cells" list
   (ncg.experiment.telemetry/7 and older versions). The report holds, in
   order:

   - a summary table, one row per cell;
   - one exactness line: the cells whose best responses were cut off by
     the set-cover node budget, and in how many solves;
   - a latency table over the sweep-wide "histograms_total" section, when
     the document has one;
   - the convergence series of up to three cells' trial-0 exemplars;
   - with --compare OTHER, a cross-run table matched on (alpha, k).

   Example:
     dune exec bin/ncg_report.exe -- --telemetry telemetry.json \
       [--compare other.json] [--out report.md]

   --telemetry is required (exit 124 without it). A document that does
   not decode is fatal (exit 1). One trajectory of a sweep cell is
   ncg_trace record's to run. *)

open Cmdliner
module Json = Ncg_obs.Json
module Markdown = Ncg_reporting.Markdown
module Probe = Ncg_obs.Probe
module Timeseries = Ncg_obs.Timeseries

let write_report out report =
  match out with
  | None -> print_string report
  | Some path ->
      Ncg_obs.Atomic_file.write path report;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length report)

type cell = {
  alpha : float;
  k : int;
  wall : float option;
  rounds : float option;
  quality : float option;
  converged : float option;
  budget_exhausted : int;  (* set-cover solves stopped by the node budget *)
  probes : Probe.snapshot;
}

type doc = {
  schema : string;
  cells : cell list;
  latency : (string * string list) list option;
      (* histogram -> rendered count, p50, p90, p99, max *)
}

(* Fields an older document lacks print as "-"; a missing counter
   reads as 0. *)
let cell_of_json c =
  let optional name = Json.opt (Json.field name Json.number) c in
  {
    alpha = Json.field "alpha" Json.number c;
    k = int_of_float (Json.field "k" Json.number c);
    wall = optional "wall_seconds";
    rounds = optional "rounds_mean";
    quality = optional "quality_mean";
    converged = optional "converged_frac";
    budget_exhausted =
      Json.field_opt "counters"
        (Json.field_opt
           (Ncg_obs.Metrics.name Ncg_obs.Metrics.set_cover_budget_exhausted)
           Json.int)
        c
      |> Option.join |> Option.value ~default:0;
    probes =
      Option.value ~default:[] (Json.field_opt "probes" (Json.nested Probe.of_json) c);
  }

let latency_of_json =
  Json.assoc (fun h ->
      let num name = Option.value (Json.opt (Json.field name Json.number) h) ~default:nan in
      Printf.sprintf "%.0f" (num "count")
      :: List.map
           (fun name -> Ncg_obs.Histogram.pp_ns (num name))
           [ "p50_ns"; "p90_ns"; "p99_ns"; "max_ns" ])

let load path =
  Result.bind (Json.of_file path)
    (Json.decode ~what:path (fun j ->
         let schema =
           Option.value (Json.opt (Json.field "schema" Json.string) j)
             ~default:"(no schema)"
         in
         match Json.field_opt "cells" (Json.list cell_of_json) j with
         | None -> Json.fail "no \"cells\" list (schema %s)" schema
         | Some cells ->
             { schema; cells; latency = Json.field_opt "histograms_total" latency_of_json j }))

let series c probe =
  match List.assoc_opt (Probe.name probe) c.probes with
  | None -> []
  | Some ts -> Timeseries.to_list ts

let fmt_num = Printf.sprintf "%.4g"
let fmt_opt = function Some f -> fmt_num f | None -> "-"
let cell_label c = Printf.sprintf "alpha=%g k=%d" c.alpha c.k

let summary_table md cells =
  Markdown.table md
    ~header:[ "alpha"; "k"; "wall s"; "rounds"; "quality"; "converged"; "probe samples" ]
    (List.map
       (fun c ->
         [
           fmt_num c.alpha;
           string_of_int c.k;
           fmt_opt c.wall;
           fmt_opt c.rounds;
           fmt_opt c.quality;
           fmt_opt c.converged;
           string_of_int (List.length (series c Probe.social_cost));
         ])
       cells)

let exactness_line md cells =
  let cut = List.filter (fun c -> c.budget_exhausted > 0) cells in
  let solves = List.fold_left (fun acc c -> acc + c.budget_exhausted) 0 cut in
  Markdown.paragraph md
    (Printf.sprintf
       "Exactness: %d of %d cells had best responses cut off by the node \
        budget, in %d set-cover solves%s."
       (List.length cut) (List.length cells) solves
       (match cut with
       | [] -> ""
       | _ ->
           ": "
           ^ String.concat ", "
               (List.map
                  (fun c -> Printf.sprintf "%s (%d)" (cell_label c) c.budget_exhausted)
                  cut)))

let latency_table md hists =
  Markdown.heading md 2 "Latency";
  Markdown.table md
    ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
    (List.map (fun (name, cols) -> name :: cols) hists)

let convergence_section md c =
  let sc = series c Probe.social_cost in
  let awake = series c Probe.awake_players in
  Markdown.heading md 2 (Printf.sprintf "Convergence: %s (trial-0 exemplar)" (cell_label c));
  Markdown.table md
    ~header:[ "round"; "social cost"; "awake players" ]
    (List.map
       (fun (x, y) ->
         [
           string_of_int (int_of_float x);
           fmt_num y;
           (match List.assoc_opt x awake with Some a -> fmt_num a | None -> "-");
         ])
       sc);
  let chart ~height label points =
    Markdown.code_block md
      (Ncg_stats.Ascii_chart.render ~width:56 ~height
         [
           {
             Ncg_stats.Ascii_chart.label;
             points = List.filter (fun (_, y) -> Float.is_finite y) points;
           };
         ])
  in
  chart ~height:12 "social cost" sc;
  chart ~height:10 "awake players" awake

let comparison_section md ~path_a ~path_b cells_a cells_b =
  Markdown.heading md 2 "Cross-run comparison";
  Markdown.paragraph md
    (Printf.sprintf "A = `%s`, B = `%s`; cells matched on (alpha, k)." path_a path_b);
  let final_sc c =
    match List.rev (series c Probe.social_cost) with
    | (_, y) :: _ -> Some y
    | [] -> None
  in
  let matched, unmatched =
    List.partition_map
      (fun a ->
        match List.find_opt (fun b -> b.alpha = a.alpha && b.k = a.k) cells_b with
        | Some b -> Left (a, b)
        | None -> Right a)
      cells_a
  in
  Markdown.table md
    ~header:
      [ "alpha"; "k"; "wall A"; "wall B"; "rounds A"; "rounds B"; "final SC A"; "final SC B" ]
    (List.map
       (fun (a, b) ->
         [
           fmt_num a.alpha;
           string_of_int a.k;
           fmt_opt a.wall;
           fmt_opt b.wall;
           fmt_opt a.rounds;
           fmt_opt b.rounds;
           fmt_opt (final_sc a);
           fmt_opt (final_sc b);
         ])
       matched);
  if unmatched <> [] then
    Markdown.paragraph md
      (Printf.sprintf "%d cell(s) of A have no (alpha, k) match in B: %s."
         (List.length unmatched)
         (String.concat ", " (List.map cell_label unmatched)))

let telemetry_report path doc compared =
  let md = Markdown.create () in
  Markdown.heading md 1 "Telemetry report";
  Markdown.paragraph md
    (Printf.sprintf "Source: `%s` (schema `%s`), %d cells." path doc.schema
       (List.length doc.cells));
  summary_table md doc.cells;
  exactness_line md doc.cells;
  Option.iter (latency_table md) doc.latency;
  (* The three longest series, longest first (a stable sort keeps
     document order among equals). *)
  let samples c = List.length (series c Probe.social_cost) in
  (match
     List.stable_sort
       (fun a b -> compare (samples b) (samples a))
       (List.filter (fun c -> samples c > 0) doc.cells)
   with
  | [] ->
      Markdown.paragraph md
        "No probe series in this document — run the sweep with probes enabled \
         (they are on by default; check for --no-probes)."
  | with_series ->
      List.iter (convergence_section md) (List.filteri (fun i _ -> i < 3) with_series));
  Option.iter
    (fun (other, (b : doc)) ->
      comparison_section md ~path_a:path ~path_b:other doc.cells b.cells)
    compared;
  Markdown.to_string md

let report_telemetry path compare_with out =
  let ( let* ) = Result.bind in
  let loaded =
    let* doc = load path in
    match compare_with with
    | None -> Ok (doc, None)
    | Some other ->
        let* b = load other in
        Ok (doc, Some (other, b))
  in
  match loaded with
  | Ok (doc, compared) ->
      write_report out (telemetry_report path doc compared);
      0
  | Error msg ->
      Printf.eprintf "ncg_report: %s\n" msg;
      1

let telemetry =
  Arg.(required & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
         ~doc:"Report on this telemetry document (any schema with a per-cell \
               \"cells\" list). Decode errors are fatal (exit 1).")

let compare_with =
  Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"FILE"
         ~doc:"Second telemetry document; adds a cross-run comparison table \
               matched on (alpha, k).")

let out =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write the report here (atomically) instead of stdout.")

let cmd =
  let doc = "write a markdown report of a sweep's telemetry" in
  Cmd.v (Cmd.info "ncg_report" ~doc)
    Term.(const report_telemetry $ telemetry $ compare_with $ out)

let () = exit (Cmd.eval' cmd)
