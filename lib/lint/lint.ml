(* What every ncg_lint check shares: the path-based zones (lib/prng may
   use randomness, lib/obs may read clocks, ...), the per-file report
   types, the [@lint.allow] / [@lint.domain_local] suppression plumbing
   and the tree scan. The checks themselves live in Typed_lint. *)

open Parsetree

type ctx = {
  prng_exempt : bool;  (* D1 off: the blessed randomness source *)
  clock_exempt : bool;  (* D2 off: the blessed clock *)
  global_state : bool;  (* P1 on: library code reachable from the executor *)
  parallel_impl : bool;  (* P2 off: the fan-out machinery itself *)
  scratch_lender : bool;  (* S1 off: the module that owns the scratch *)
  schema_registry : bool;  (* R1 off: the one blessed literal site *)
  known_schemas : string list;  (* R1: the registered schema tags *)
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ctx_for_path ~known_schemas path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let p = "/" ^ path in
  let in_dir d = contains_sub p ("/" ^ d ^ "/") in
  let is_file f = String.ends_with ~suffix:("/" ^ f) p in
  {
    prng_exempt = in_dir "lib/prng";
    clock_exempt = in_dir "lib/obs";
    global_state = in_dir "lib";
    parallel_impl = is_file "lib/fault/executor.ml";
    scratch_lender =
      is_file "lib/graph/bfs.ml" || is_file "lib/core/workspace.ml"
      || is_file "lib/core/ball_view.ml";
    schema_registry = is_file "lib/obs/schema.ml";
    known_schemas;
  }

type violation = {
  file : string;
  line : int;
  col : int;
  rule : Rules.id;
  message : string;
}

type suppression = {
  sup_file : string;
  sup_line : int;
  sup_rule : Rules.id;
  sup_justification : string;
  sup_matched : int;  (* raw violations this suppression absorbed *)
}

type file_report = {
  path : string;
  violations : violation list;
  suppressions : suppression list;
  parse_error : string option;
}

(* A conversion that prints a float with no explicit precision: '%f' not
   preceded by an escaping '%'. *)
let has_bare_percent_f s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then false
    else if s.[i] <> '%' then go (i + 1)
    else if s.[i + 1] = '%' then go (i + 2)
    else if s.[i + 1] = 'f' then true
    else go (i + 1)
  in
  go 0

(* --- Suppression plumbing ---------------------------------------------------- *)

let rec payload_strings e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
  | Pexp_apply (f, args) ->
      payload_strings f @ List.concat_map (fun (_, a) -> payload_strings a) args
  | Pexp_tuple es -> List.concat_map payload_strings es
  | _ -> []

let attr_strings (attr : attribute) =
  match attr.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> payload_strings e
  | _ -> []

type raw_suppression = {
  rs_rule : Rules.id;
  rs_from : int;  (* cnum range the suppression covers *)
  rs_to : int;
  rs_line : int;
  rs_justification : string;
}

(* [@lint.allow "RULE"... "why"] / [@lint.domain_local "why"], scoped to
   the host node's character range. Attribute payloads stay Parsetree in
   the Typedtree, so they are parsed here. *)
let scan_attr ~add_viol ~add_supp ~from_cnum ~to_cnum (attr : attribute) =
  let line = attr.attr_loc.Location.loc_start.Lexing.pos_lnum in
  let supp rule justification =
    add_supp
      {
        rs_rule = rule;
        rs_from = from_cnum;
        rs_to = to_cnum;
        rs_line = line;
        rs_justification = justification;
      }
  in
  match attr.attr_name.Location.txt with
  | "lint.allow" ->
      let strings = attr_strings attr in
      let rec split acc = function
        | s :: rest when Rules.of_string s <> None ->
            split (Option.get (Rules.of_string s) :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let rules, rest = split [] strings in
      let justification = String.trim (String.concat " " rest) in
      if rules = [] then
        add_viol attr.attr_loc Rules.L1
          "lint.allow names no known rule id (expected e.g. \"D3\")"
      else if justification = "" then
        add_viol attr.attr_loc Rules.L1
          "lint.allow carries no justification string"
      else List.iter (fun r -> supp r justification) rules
  | "lint.domain_local" ->
      let justification = String.trim (String.concat " " (attr_strings attr)) in
      if justification = "" then
        add_viol attr.attr_loc Rules.L1
          "lint.domain_local carries no justification string"
      else supp Rules.P1 justification
  | _ -> ()

(* Apply collected suppressions to collected raw violations: a violation
   is dropped when any suppression of its rule spans its cnum; each
   suppression records how many raw violations it absorbed (the L2
   staleness signal, judged in Report.merge). *)
let finish ~filename raw_supps raw_viols =
  let covers s ((v : violation), cnum) =
    s.rs_rule = v.rule && cnum >= s.rs_from && cnum <= s.rs_to
  in
  let violations =
    raw_viols
    |> List.filter (fun rv -> not (List.exists (fun s -> covers s rv) raw_supps))
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> List.map fst
  in
  let suppressions =
    raw_supps
    |> List.sort (fun a b -> compare a.rs_line b.rs_line)
    |> List.map (fun s ->
           {
             sup_file = filename;
             sup_line = s.rs_line;
             sup_rule = s.rs_rule;
             sup_justification = s.rs_justification;
             sup_matched = List.length (List.filter (covers s) raw_viols);
           })
  in
  { path = filename; violations; suppressions; parse_error = None }

(* --- Tree scanning --------------------------------------------------------- *)

(* Root-relative .ml paths under [dirs], sorted, skipping _build and dot
   directories — the same file set for the CLI driver, the CI job and
   the lints-clean test. *)
let ml_files_under ~root ~dirs =
  let out = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs && Sys.is_directory abs then
      Array.iter
        (fun entry ->
          if entry <> "" && entry.[0] <> '.' && entry <> "_build" then begin
            let rel' = if rel = "" then entry else rel ^ "/" ^ entry in
            let abs' = Filename.concat root rel' in
            if Sys.is_directory abs' then walk rel'
            else if Filename.check_suffix entry ".ml" then out := rel' :: !out
          end)
        (Sys.readdir abs)
  in
  List.iter walk dirs;
  List.sort compare !out
