(* Sweep dashboard: live view of a running experiment's events JSONL, and
   post-hoc Markdown convergence reports from telemetry documents.

   Live mode (default) tails the file a sweep writes under --events:

     dune exec bin/ncg_top.exe -- events.jsonl            # follow
     dune exec bin/ncg_top.exe -- --once events.jsonl     # one frame (CI)

   Besides regular files (polled by offset), the EVENTS argument may be
   a FIFO (lines arrive pushed by any writer, e.g. tail -f events.jsonl).

   It renders a progress grid over the (alpha, k) plane from sweep.cell
   events, convergence sparklines from dynamics.round events (emitted
   when probes and events are both enabled), and the latest quarantine
   alerts. Torn or foreign lines are counted and skipped — a live tail
   always sees partial writes.

   Post-hoc mode renders a Markdown convergence report from any telemetry
   document with a "cells" list (ncg.experiment.telemetry/6,
   ncg.bench.experiment/6, ncg.bench.fullgrid/2, and older versions):

     dune exec bin/ncg_top.exe -- --post-hoc --telemetry telemetry.json \
       [--compare other.json] [--out report.md]

   Unlike the live tail, post-hoc input is a complete artifact: any parse
   error is fatal (exit 1), which is what CI runs it for. *)

module Json = Ncg_obs.Json
module Markdown = Ncg_reporting.Markdown
module Timeseries = Ncg_obs.Timeseries

(* --- Live mode ------------------------------------------------------------- *)

(* Cell key: (alpha, k). Floats compare exactly here because both sides
   of every comparison come from the same JSON round-trip. *)
type key = float * int

type status = Done | Cached | Quarantined

type live = {
  cells : (key, status) Hashtbl.t;
  series : (key, (int * float * int) list ref) Hashtbl.t;
      (* newest-first (round, social_cost, awake) from dynamics.round *)
  mutable total : int;
  mutable finished : int;
  mutable events : int;
  mutable skipped : int;  (* torn / unparseable lines *)
  mutable alerts : string list;  (* newest first, capped *)
}

let new_live () =
  {
    cells = Hashtbl.create 64;
    series = Hashtbl.create 64;
    total = 0;
    finished = 0;
    events = 0;
    skipped = 0;
    alerts = [];
  }

let alert st line =
  st.alerts <- (line :: st.alerts) |> List.filteri (fun i _ -> i < 6)

let key_of_event =
  Json.opt (fun j -> (Json.field "alpha" Json.number j, Json.field "k" Json.int j))

let process_line st line =
  if String.trim line = "" then ()
  else
    match Json.of_string line with
    | Error _ -> st.skipped <- st.skipped + 1
    | Ok j -> (
        st.events <- st.events + 1;
        (* Live lines are read leniently: a missing or mistyped field
           reads as absent, shown as "?". *)
        let get name decode = Json.opt (Json.field name decode) j in
        let text name = Option.value (get name Json.string) ~default:"?" in
        match get "event" Json.string with
        | Some "sweep.cell" -> (
            (match get "total" Json.int with
            | Some t -> st.total <- max st.total t
            | None -> ());
            (match get "done" Json.int with
            | Some d -> st.finished <- max st.finished d
            | None -> ());
            match key_of_event j with
            | None -> ()
            | Some key ->
                let cached = get "cached" Json.bool = Some true in
                Hashtbl.replace st.cells key (if cached then Cached else Done))
        | Some "sweep.cell.quarantined" -> (
            (match get "done" Json.int with
            | Some d -> st.finished <- max st.finished d
            | None -> ());
            match key_of_event j with
            | None -> ()
            | Some ((alpha, k) as key) ->
                Hashtbl.replace st.cells key Quarantined;
                alert st
                  (Printf.sprintf "QUARANTINED alpha=%g k=%d (%s): %s" alpha k
                     (text "kind") (text "error")))
        | Some "dynamics.round" -> (
            match
              ( key_of_event j,
                get "round" Json.int,
                get "social_cost" Json.number,
                get "awake" Json.int )
            with
            | Some key, Some round, Some sc, Some awake ->
                let cell =
                  match Hashtbl.find_opt st.series key with
                  | Some r -> r
                  | None ->
                      let r = ref [] in
                      Hashtbl.add st.series key r;
                      r
                in
                cell := (round, sc, awake) :: !cell
            | _ -> ())
        | _ -> ())

let sorted_uniq compare l = List.sort_uniq compare l

let grid_lines st =
  let keys =
    (Hashtbl.fold [@lint.allow "D3" "keys are sort_uniq-ed below"])
      (fun k _ acc -> k :: acc)
      st.cells []
  in
  if keys = [] then [ "waiting for sweep.cell events..." ]
  else begin
    let alphas = sorted_uniq compare (List.map fst keys) in
    let ks = sorted_uniq compare (List.map snd keys) in
    let header =
      Printf.sprintf "%8s %s" "alpha\\k"
        (String.concat " " (List.map (Printf.sprintf "%5d") ks))
    in
    let row alpha =
      let marks =
        List.map
          (fun k ->
            let c =
              match Hashtbl.find_opt st.cells (alpha, k) with
              | Some Done -> '#'
              | Some Cached -> 'c'
              | Some Quarantined -> 'X'
              | None -> '.'
            in
            Printf.sprintf "%5s" (String.make 1 c))
          ks
      in
      Printf.sprintf "%8g %s" alpha (String.concat " " marks)
    in
    (header :: List.map row alphas)
    @ [ "legend: # done   c cached   X quarantined   . pending" ]
  end

let spark_lines st =
  let cells =
    (Hashtbl.fold [@lint.allow "D3" "fully ordered by the sort below"])
      (fun key series acc -> (key, List.rev !series) :: acc)
      st.series []
  in
  let cells =
    (* Longest series first; ties broken by (alpha, k) so the frame does
       not depend on hash order. *)
    List.sort
      (fun (ka, a) (kb, b) ->
        match compare (List.length b) (List.length a) with
        | 0 -> compare ka kb
        | c -> c)
      (List.filter (fun (_, s) -> s <> []) cells)
  in
  match cells with
  | [] -> []
  | _ ->
      let top = List.filteri (fun i _ -> i < 4) cells in
      let chart title pick =
        let series =
          List.map
            (fun (((alpha, k) : key), samples) ->
              {
                Ncg_stats.Ascii_chart.label = Printf.sprintf "a=%g k=%d" alpha k;
                points =
                  List.filter_map
                    (fun (round, sc, awake) ->
                      let y = pick sc awake in
                      if Float.is_finite y then Some (float_of_int round, y)
                      else None)
                    samples;
              })
            top
        in
        title :: [ Ncg_stats.Ascii_chart.render ~width:56 ~height:10 series ]
      in
      chart "social cost by round (most-sampled cells):" (fun sc _ -> sc)
      @ chart "awake players by round:" (fun _ awake -> float_of_int awake)

let render st =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let quarantined =
    (Hashtbl.fold [@lint.allow "D3" "order-independent count"])
      (fun _ s acc -> if s = Quarantined then acc + 1 else acc)
      st.cells 0
  in
  let cached =
    (Hashtbl.fold [@lint.allow "D3" "order-independent count"])
      (fun _ s acc -> if s = Cached then acc + 1 else acc)
      st.cells 0
  in
  line "ncg_top — sweep dashboard";
  line "cells: %d/%s done (%d cached, %d quarantined) — %d events, %d skipped lines"
    st.finished
    (if st.total > 0 then string_of_int st.total else "?")
    cached quarantined st.events st.skipped;
  line "";
  List.iter (fun l -> line "%s" l) (grid_lines st);
  (match spark_lines st with
  | [] -> ()
  | lines ->
      line "";
      List.iter (fun l -> line "%s" l) lines);
  (match st.alerts with
  | [] -> ()
  | alerts ->
      line "";
      line "alerts (newest first):";
      List.iter (fun a -> line "  %s" a) alerts);
  Buffer.contents b

(* Reads complete lines appended since [pos]; a trailing partial line is
   left for the next poll. *)
let read_new path pos =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len <= pos then (pos, [])
      else begin
        seek_in ic pos;
        let chunk = really_input_string ic (len - pos) in
        match String.rindex_opt chunk '\n' with
        | None -> (pos, [])
        | Some i ->
            let complete = String.sub chunk 0 i in
            (pos + i + 1, String.split_on_char '\n' complete)
      end)

let clear_and_render st =
  if Unix.isatty Unix.stdout then print_string "\027[2J\027[H";
  print_string (render st);
  flush stdout

let live_file path once interval =
  let st = new_live () in
  let pos = ref 0 in
  let step () =
    let np, lines = read_new path !pos in
    pos := np;
    List.iter (process_line st) lines
  in
  if once then begin
    step ();
    print_string (render st);
    0
  end
  else begin
    Sys.catch_break true;
    (try
       while true do
         step ();
         clear_and_render st;
         Unix.sleepf interval
       done
     with Sys.Break -> print_newline ());
    0
  end

(* A FIFO blocks on read, so a reader thread feeds lines into a queue
   and the render loop wakes on its own clock. --once drains the stream
   to EOF first, which suits FIFOs with a finite writer. *)
let live_stream ic once interval =
  let st = new_live () in
  if once then begin
    (try
       while true do
         process_line st (input_line ic)
       done
     with End_of_file | Sys_error _ -> ());
    print_string (render st);
    0
  end
  else begin
    let pending = Queue.create () in
    let mutex = Mutex.create () in
    let eof = ref false in
    let _reader =
      Thread.create
        (fun () ->
          (try
             while true do
               let line = input_line ic in
               Mutex.lock mutex;
               Queue.push line pending;
               Mutex.unlock mutex
             done
           with End_of_file | Sys_error _ -> ());
          Mutex.lock mutex;
          eof := true;
          Mutex.unlock mutex)
        ()
    in
    Sys.catch_break true;
    let finished = ref false in
    (try
       while not !finished do
         Mutex.lock mutex;
         while not (Queue.is_empty pending) do
           process_line st (Queue.pop pending)
         done;
         let at_eof = !eof in
         Mutex.unlock mutex;
         clear_and_render st;
         if at_eof then finished := true else Unix.sleepf interval
       done;
       if !finished then print_endline "ncg_top: event stream closed"
     with Sys.Break -> print_newline ());
    0
  end

let live path once interval =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "ncg_top: %s: no such file\n" path;
    2
  end
  else if (Unix.stat path).Unix.st_kind = Unix.S_FIFO then begin
    (* Opening a FIFO read-only blocks until a writer appears — exactly
       the "waiting for the sweep to start" behaviour we want. *)
    let ic = open_in_bin path in
    live_stream ic once interval
  end
  else live_file path once interval

(* --- Post-hoc mode --------------------------------------------------------- *)

type ph_cell = {
  ph_alpha : float;
  ph_k : int;
  ph_wall : float option;
  ph_rounds : float option;
  ph_quality : float option;
  ph_converged : float option;
  ph_probes : Ncg_obs.Probe.snapshot;
}

let cell_of_json c =
  let num name = Json.field name Json.number c in
  let optional name = Json.opt (Json.field name Json.number) c in
  {
    ph_alpha = num "alpha";
    ph_k = int_of_float (num "k");
    ph_wall = optional "wall_seconds";
    ph_rounds = optional "rounds_mean";
    ph_quality = optional "quality_mean";
    ph_converged = optional "converged_frac";
    ph_probes =
      Option.value ~default:[]
        (Json.field_opt "probes" (Json.nested Ncg_obs.Probe.of_json) c);
  }

(* Any document with a "cells" list is accepted — the experiment
   telemetry and both bench outputs write Experiment.cell_json records.
   Fields an older document lacks print as "-". *)
let load_cells path =
  Result.bind (Json.of_file path)
    (Json.decode ~what:path (fun j ->
         let schema = Json.opt (Json.field "schema" Json.string) j in
         let schema = Option.value schema ~default:"(no schema)" in
         match Json.field_opt "cells" (Json.list cell_of_json) j with
         | Some cells -> (schema, cells)
         | None -> Json.fail "no \"cells\" list (schema %s)" schema))

let probe_samples cell name =
  match List.assoc_opt name cell.ph_probes with
  | None -> []
  | Some ts -> Timeseries.to_list ts

let fmt_opt = function Some f -> Printf.sprintf "%.4g" f | None -> "-"

let fmt_num = Printf.sprintf "%.4g"

let cell_label c = Printf.sprintf "alpha=%g k=%d" c.ph_alpha c.ph_k

let summary_table md cells =
  Markdown.table md
    ~header:
      [ "alpha"; "k"; "wall s"; "rounds"; "quality"; "converged"; "probe samples" ]
    (List.map
       (fun c ->
         [
           fmt_num c.ph_alpha;
           string_of_int c.ph_k;
           fmt_opt c.ph_wall;
           fmt_opt c.ph_rounds;
           fmt_opt c.ph_quality;
           fmt_opt c.ph_converged;
           string_of_int
             (List.length (probe_samples c (Ncg_obs.Probe.name Ncg_obs.Probe.social_cost)));
         ])
       cells)

let convergence_section md c =
  let sc = probe_samples c (Ncg_obs.Probe.name Ncg_obs.Probe.social_cost) in
  let awake = probe_samples c (Ncg_obs.Probe.name Ncg_obs.Probe.awake_players) in
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
  let chart label points =
    {
      Ncg_stats.Ascii_chart.label;
      points = List.filter (fun (_, y) -> Float.is_finite y) points;
    }
  in
  Markdown.code_block md
    (Ncg_stats.Ascii_chart.render ~width:56 ~height:12 [ chart "social cost" sc ]);
  Markdown.code_block md
    (Ncg_stats.Ascii_chart.render ~width:56 ~height:10
       [ chart "awake players" awake ])

let comparison_section md ~path_a ~path_b cells_a cells_b =
  Markdown.heading md 2 "Cross-run comparison";
  Markdown.paragraph md
    (Printf.sprintf "A = `%s`, B = `%s`; cells matched on (alpha, k)." path_a path_b);
  let final_sc c =
    match
      Timeseries.last
        (Option.value
           (List.assoc_opt (Ncg_obs.Probe.name Ncg_obs.Probe.social_cost) c.ph_probes)
           ~default:(Timeseries.create ()))
    with
    | Some (_, y) -> Some y
    | None -> None
  in
  let rows =
    List.filter_map
      (fun a ->
        match
          List.find_opt (fun b -> b.ph_alpha = a.ph_alpha && b.ph_k = a.ph_k) cells_b
        with
        | None -> None
        | Some b ->
            Some
              [
                fmt_num a.ph_alpha;
                string_of_int a.ph_k;
                fmt_opt a.ph_wall;
                fmt_opt b.ph_wall;
                fmt_opt a.ph_rounds;
                fmt_opt b.ph_rounds;
                fmt_opt (final_sc a);
                fmt_opt (final_sc b);
              ])
      cells_a
  in
  Markdown.table md
    ~header:
      [
        "alpha"; "k"; "wall A"; "wall B"; "rounds A"; "rounds B"; "final SC A";
        "final SC B";
      ]
    rows;
  let unmatched =
    List.filter
      (fun a ->
        not
          (List.exists (fun b -> b.ph_alpha = a.ph_alpha && b.ph_k = a.ph_k) cells_b))
      cells_a
  in
  if unmatched <> [] then
    Markdown.paragraph md
      (Printf.sprintf "%d cell(s) of A have no (alpha, k) match in B: %s."
         (List.length unmatched)
         (String.concat ", " (List.map cell_label unmatched)))

let report telemetry (schema, cells) compared out =
  let md = Markdown.create () in
  Markdown.heading md 1 "Convergence report";
  Markdown.paragraph md
    (Printf.sprintf "Source: `%s` (schema `%s`), %d cells." telemetry schema
       (List.length cells));
  summary_table md cells;
  let with_series =
    List.sort
      (fun a b ->
        compare
          (List.length (probe_samples b (Ncg_obs.Probe.name Ncg_obs.Probe.social_cost)))
          (List.length (probe_samples a (Ncg_obs.Probe.name Ncg_obs.Probe.social_cost))))
      (List.filter
         (fun c -> probe_samples c (Ncg_obs.Probe.name Ncg_obs.Probe.social_cost) <> [])
         cells)
  in
  (match with_series with
  | [] ->
      Markdown.paragraph md
        "No probe series in this document — run the sweep with probes enabled \
         (they are on by default; check for --no-probes)."
  | _ ->
      List.iter (convergence_section md) (List.filteri (fun i _ -> i < 3) with_series));
  (match compared with
  | None -> ()
  | Some (other, cells_b) ->
      comparison_section md ~path_a:telemetry ~path_b:other cells cells_b);
  let rendered = Markdown.to_string md in
  match out with
  | Some path ->
      Ncg_obs.Atomic_file.write path rendered;
      Printf.printf "wrote %s\n" path
  | None -> print_string rendered

let post_hoc telemetry compare_with out =
  let ( let* ) = Result.bind in
  let loaded =
    let* doc = load_cells telemetry in
    match compare_with with
    | None -> Ok (doc, None)
    | Some other ->
        let* _, cells_b = load_cells other in
        Ok (doc, Some (other, cells_b))
  in
  match loaded with
  | Ok (doc, compared) ->
      report telemetry doc compared out;
      0
  | Error msg ->
      Printf.eprintf "ncg_top: %s\n" msg;
      1

(* --- CLI ------------------------------------------------------------------- *)

open Cmdliner

let events_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"EVENTS"
        ~doc:"Event source for live mode: a JSONL file written by a sweep's \
              --events flag, or a FIFO carrying event lines.")

let once_arg =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"Render a single frame from the current file contents and exit \
              (for CI and replays) instead of following the file.")

let interval_arg =
  Arg.(
    value & opt float 0.5
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Polling interval in follow mode.")

let post_hoc_arg =
  Arg.(
    value & flag
    & info [ "post-hoc" ]
        ~doc:"Render a Markdown convergence report from $(b,--telemetry) instead \
              of tailing an events file. Parse errors are fatal (exit 1).")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Telemetry JSON document (any schema with a per-cell \"cells\" list: \
           ncg.experiment.telemetry/6, ncg.bench.experiment/6, \
           ncg.bench.fullgrid/2, and older versions).")

let compare_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "compare" ] ~docv:"FILE"
        ~doc:"Second telemetry document; adds a cross-run comparison table \
              matched on (alpha, k).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the post-hoc report here (atomically) instead of stdout.")

let run events once interval post_hoc_mode telemetry compare_with out =
  if post_hoc_mode then
    match telemetry with
    | None ->
        prerr_endline "ncg_top: --post-hoc requires --telemetry FILE";
        2
    | Some t -> post_hoc t compare_with out
  else
    match events with
    | None ->
        prerr_endline
          "ncg_top: an EVENTS.jsonl argument is required in live mode (or use \
           --post-hoc)";
        2
    | Some path -> live path once interval

let cmd =
  let doc = "live sweep dashboard and post-hoc convergence reports" in
  Cmd.v
    (Cmd.info "ncg_top" ~doc)
    Term.(
      const run $ events_arg $ once_arg $ interval_arg $ post_hoc_arg
      $ telemetry_arg $ compare_arg $ out_arg)

let () = exit (Cmd.eval' cmd)
