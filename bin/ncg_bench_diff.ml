(* Bench perf-regression gate.

   Diffs the cells of fresh sweep telemetry documents (written by
   `ncg_experiment --telemetry`; any document whose "cells" are
   Experiment.cell_json records) against the committed
   bench/BASELINE.json. Each positional SECTION=FILE names one baseline
   section and the document to check against it; CI sweeps the smoke
   grid into BENCH_experiment.json and the paper's full grid into
   BENCH_fullgrid.json (the two commands are in docs/PERFORMANCE.md):

     dune exec bin/ncg_bench_diff.exe -- --baseline bench/BASELINE.json \
       experiment=BENCH_experiment.json fullgrid=BENCH_fullgrid.json

   Per cell (matched on alpha and k) it hard-fails when GC allocated
   words grew beyond --tolerance (default 1%) or when any counter in the
   baseline snapshot increased — both are deterministic functions of the
   cell under the engine's parallel==sequential contract, so any growth
   is a real hot-path regression, not noise. Wall-clock only warns
   (runner-dependent). Improvements (fewer words / smaller counters)
   also warn, as a nudge to re-baseline and lock them in.

   Re-baseline (after an intentional engine change):

     dune exec bin/ncg_bench_diff.exe -- --write-baseline bench/BASELINE.json \
       experiment=BENCH_experiment.json fullgrid=BENCH_fullgrid.json

   Exit codes: 0 clean (warnings allowed), 1 regression, 2 bad usage or
   unreadable/ill-formed input. *)

module Json = Ncg_obs.Json

let baseline_schema = Ncg_obs.Schema.bench_baseline

(* [read path decode] parses the file at [path] and decodes it; errors
   name the file. *)
let read path decode = Result.bind (Json.of_file path) (Json.decode ~what:path decode)

(* One bench cell reduced to what the gate compares. *)
type cell = {
  alpha : float;
  k : int;
  allocated_words : float;
  wall_seconds : float;
  counters : (string * float) list;
}

let cell_of_json j =
  let num name = Json.field name Json.number j in
  {
    alpha = num "alpha";
    k = int_of_float (num "k");
    allocated_words =
      (* Telemetry cells nest it under "gc"; the baseline stores it flat. *)
      (match Json.field_opt "allocated_words" Json.number j with
      | Some words -> words
      | None -> Json.field "gc" (Json.field "allocated_words" Json.number) j);
    wall_seconds = num "wall_seconds";
    counters = Json.field "counters" (Json.assoc Json.number) j;
  }

let cells = Json.field "cells" (Json.list cell_of_json)

(* SECTION=FILE positional arguments. *)
let parse_spec spec =
  match String.index_opt spec '=' with
  | Some i when i > 0 ->
      Ok (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | _ -> Error (Printf.sprintf "bad section spec %S (expected SECTION=FILE)" spec)

let cell_key c = Printf.sprintf "alpha=%g k=%d" c.alpha c.k

let diff_section ~tolerance ~wall_tolerance ~fails ~warns name baseline fresh =
  let tag kind fmt =
    Printf.ksprintf
      (fun s ->
        let line = Printf.sprintf "%s [%s] %s" kind name s in
        print_endline line;
        match kind with
        | "FAIL" -> incr fails
        | _ -> incr warns)
      fmt
  in
  List.iter
    (fun (b : cell) ->
      match
        List.find_opt (fun f -> f.alpha = b.alpha && f.k = b.k) fresh
      with
      | None -> tag "FAIL" "%s: cell missing from fresh telemetry" (cell_key b)
      | Some f ->
          if f.allocated_words > b.allocated_words *. (1. +. tolerance) then
            tag "FAIL" "%s: allocated words %.4g -> %.4g (+%.1f%%, tolerance %.1f%%)"
              (cell_key b) b.allocated_words f.allocated_words
              (100. *. ((f.allocated_words /. b.allocated_words) -. 1.))
              (100. *. tolerance)
          else if f.allocated_words < b.allocated_words *. (1. -. tolerance) then
            tag "WARN" "%s: allocated words improved %.4g -> %.4g; re-baseline to lock in"
              (cell_key b) b.allocated_words f.allocated_words;
          List.iter
            (fun (counter, bv) ->
              match List.assoc_opt counter f.counters with
              | None ->
                  tag "FAIL" "%s: counter %s missing from fresh output" (cell_key b)
                    counter
              | Some fv ->
                  if fv > bv then
                    tag "FAIL" "%s: counter %s %.0f -> %.0f" (cell_key b) counter bv fv
                  else if fv < bv then
                    tag "WARN" "%s: counter %s improved %.0f -> %.0f; re-baseline"
                      (cell_key b) counter bv fv)
            b.counters;
          if f.wall_seconds > b.wall_seconds *. (1. +. wall_tolerance) then
            tag "WARN" "%s: wall %.3fs -> %.3fs (runner-dependent, not gated)"
              (cell_key b) b.wall_seconds f.wall_seconds)
    baseline;
  List.iter
    (fun (f : cell) ->
      if not (List.exists (fun b -> b.alpha = f.alpha && b.k = f.k) baseline) then
        tag "WARN" "%s: new cell not in baseline; re-baseline to start gating it"
          (cell_key f))
    fresh

let cell_to_baseline_json (c : cell) =
  Json.Obj
    [
      ("alpha", Json.Float c.alpha);
      ("k", Json.Int c.k);
      ("allocated_words", Json.Float c.allocated_words);
      ("wall_seconds", Json.Float c.wall_seconds);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) c.counters) );
    ]

let write_baseline path sections =
  Json.to_file path
    (Json.Obj
       [
         ("schema", Json.String baseline_schema);
         ( "sections",
           Json.Obj
             (List.map
                (fun (name, cells) ->
                  let cells = Json.List (List.map cell_to_baseline_json cells) in
                  (name, Json.Obj [ ("cells", cells) ]))
                sections) );
       ]);
  Printf.printf "wrote %s (%s)\n" path
    (String.concat ", "
       (List.map
          (fun (name, cells) -> Printf.sprintf "%s: %d cells" name (List.length cells))
          sections));
  0

let gate ~tolerance ~wall_tolerance baseline_path sections =
  let ( let* ) = Result.bind in
  let* baseline =
    read baseline_path (fun j ->
        Json.schema baseline_schema j;
        List.map
          (fun (name, _) -> (name, Json.field "sections" (Json.field name cells) j))
          sections)
  in
  let fails = ref 0 and warns = ref 0 in
  List.iter
    (fun (name, fresh) ->
      let base = List.assoc name baseline in
      diff_section ~tolerance ~wall_tolerance ~fails ~warns name base fresh;
      Printf.printf "section %s: %d baseline cells checked\n" name (List.length base))
    sections;
  if !fails > 0 then begin
    Printf.printf "bench gate: %d regression(s), %d warning(s)\n" !fails !warns;
    Ok 1
  end
  else begin
    Printf.printf "bench gate: clean (%d warning(s))\n" !warns;
    Ok 0
  end

let run baseline_path write_path tolerance wall_tolerance specs =
  let ( let* ) = Result.bind in
  let result =
    let* sections =
      List.fold_left
        (fun acc spec ->
          let* acc = acc in
          let* name, file = parse_spec spec in
          let* cells = read file cells in
          Ok (acc @ [ (name, cells) ]))
        (Ok []) specs
    in
    match (sections, write_path, baseline_path) with
    | [], _, _ -> Error "no SECTION=FILE arguments given"
    | _, Some path, _ -> Ok (write_baseline path sections)
    | _, None, Some path -> gate ~tolerance ~wall_tolerance path sections
    | _, None, None -> Error "one of --baseline or --write-baseline is required"
  in
  match result with
  | Ok code -> code
  | Error msg ->
      prerr_endline ("ncg_bench_diff: " ^ msg);
      2

open Cmdliner

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Committed baseline to diff against (bench/BASELINE.json).")

let write_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:
          "Regenerate the baseline at $(docv) from the given telemetry documents \
           instead of diffing.")

let tolerance_arg =
  Arg.(
    value & opt float 0.01
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:"Allocated-words growth that hard-fails (fraction, default 1%).")

let wall_tolerance_arg =
  Arg.(
    value & opt float 0.25
    & info [ "wall-tolerance" ] ~docv:"FRAC"
        ~doc:"Wall-clock growth that warns (fraction, default 25%).")

let specs_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SECTION=FILE"
        ~doc:"Baseline section name and its fresh telemetry document.")

let cmd =
  let doc = "diff sweep telemetry against the committed perf baseline" in
  Cmd.v
    (Cmd.info "ncg_bench_diff" ~doc)
    Term.(
      const run $ baseline_arg $ write_arg $ tolerance_arg
      $ wall_tolerance_arg $ specs_arg)

let () = exit (Cmd.eval' cmd)
