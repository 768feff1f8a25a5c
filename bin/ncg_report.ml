(* ncg_report: run one dynamics and write a self-contained markdown report
   (configuration, outcome, per-round features, social-cost chart, trace
   summary).

   Example:
     dune exec bin/ncg_report.exe -- --class tree -n 40 --alpha 2 -k 3 \
         --out report.md

   With --telemetry FILE it instead summarizes an existing sweep telemetry
   document: a latency table (count, p50/p90/p99, max) per histogram in
   the sweep-wide "histograms_total" section. *)

open Cmdliner

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let latency_report path out =
  let module Json = Ncg_obs.Json in
  let num name h = Option.value (Json.opt (Json.field name Json.number) h) ~default:nan in
  let hists =
    let decode =
      Json.decode ~what:path (Json.field "histograms_total" (Json.assoc Fun.id))
    in
    match Result.bind (Json.of_file path) decode with
    | Ok hists -> hists
    | Error e -> failwith (e ^ " (is this sweep telemetry?)")
  in
  let md = Ncg_reporting.Markdown.create () in
  Ncg_reporting.Markdown.heading md 1 "Sweep latency profile";
  Ncg_reporting.Markdown.paragraph md
    (Printf.sprintf "Source: `%s`, %d histogram(s)." path (List.length hists));
  Ncg_reporting.Markdown.table md
    ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
    (List.map
       (fun (name, h) ->
         [
           name;
           Printf.sprintf "%.0f" (num "count" h);
           pretty_ns (num "p50_ns" h);
           pretty_ns (num "p90_ns" h);
           pretty_ns (num "p99_ns" h);
           pretty_ns (num "max_ns" h);
         ])
       hists);
  let report = Ncg_reporting.Markdown.to_string md in
  match out with
  | None -> print_string report
  | Some path ->
      Ncg_obs.Atomic_file.write path report;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length report)

let run graph_class n p alpha k seed variant telemetry out =
  match telemetry with
  | Some path -> latency_report path out
  | None ->
  let strategy =
    Ncg.Sweep_spec.make_initial { Ncg.Sweep_spec.default with graph_class; n; p } ~seed
  in
  let variant =
    match variant with
    | "max" -> Ncg.Game.Max
    | "sum" -> Ncg.Game.Sum
    | v -> failwith ("unknown variant " ^ v)
  in
  let config =
    {
      (Ncg.Dynamics.default_config ~alpha ~k) with
      Ncg.Dynamics.variant;
      solver = `Budgeted 50_000;
      sum_mode = `Branch_and_bound 34;
    }
  in
  let result = Ncg.Dynamics.run config strategy in
  let title =
    Printf.sprintf "%sNCG dynamics on %s (n=%d, alpha=%g, k=%d, seed=%d)"
      (Ncg.Game.variant_to_string variant)
      graph_class n alpha k seed
  in
  let report = Ncg_reporting.Run_report.of_run ~title config strategy result in
  match out with
  | None -> print_string report
  | Some path ->
      Ncg_obs.Atomic_file.write path report;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length report)

let graph_class =
  let classes = List.map (fun c -> (c, c)) Ncg.Sweep_spec.graph_classes in
  Arg.(value & opt (enum classes) "tree" & info [ "class" ] ~docv:"CLASS"
         ~doc:("Initial graph class: " ^ doc_alts_enum classes ^ "."))

let n = Arg.(value & opt int 40 & info [ "n" ] ~doc:"Players.")
let p = Arg.(value & opt float 0.1 & info [ "p" ] ~doc:"Edge probability (gnp).")
let alpha = Arg.(value & opt float 2.0 & info [ "alpha"; "a" ] ~doc:"Edge price.")
let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"View radius.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
let variant = Arg.(value & opt string "max" & info [ "variant" ] ~doc:"max or sum.")

let telemetry =
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
         ~doc:"Summarize this sweep telemetry JSON (latency table from its \
               histograms_total section) instead of running a dynamics.")

let out =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write the report here instead of stdout.")

let cmd =
  let doc = "write a markdown report of one dynamics run" in
  Cmd.v (Cmd.info "ncg_report" ~doc)
    Term.(
      const run $ graph_class $ n $ p $ alpha $ k $ seed $ variant $ telemetry
      $ out)

let () = exit (Cmd.eval cmd)
