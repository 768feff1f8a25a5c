(* Rendering of lint results.

   [merge] folds the per-file reports of one run into one document and
   judges L2 staleness: a suppression that absorbed zero raw violations
   is dead weight, reported both in [stale_suppressions] and as a
   synthesized L2 violation. A file that could not be checked carries
   no suppressions, so it is never judged stale. *)

let schema = Ncg_obs.Schema.lint_report

module J = Ncg_obs.Json

type t = {
  root : string;
  files_checked : int;
  violations : Lint.violation list;
  suppressions : Lint.suppression list;
  parse_errors : (string * string) list;
}

let is_stale (s : Lint.suppression) = s.sup_matched = 0

let merge ~root (reports : Lint.file_report list) =
  let suppressions =
    List.concat_map (fun (r : Lint.file_report) -> r.suppressions) reports
    |> List.sort (fun (a : Lint.suppression) (b : Lint.suppression) ->
           compare
             (a.sup_file, a.sup_line, Rules.to_string a.sup_rule)
             (b.sup_file, b.sup_line, Rules.to_string b.sup_rule))
  in
  let stale_violations =
    List.filter_map
      (fun (s : Lint.suppression) ->
        if is_stale s then
          Some
            {
              Lint.file = s.sup_file;
              line = s.sup_line;
              col = 0;
              rule = Rules.L2;
              message =
                Printf.sprintf
                  "stale suppression: rule %s no longer fires at this site \
                   (justification: %s)"
                  (Rules.to_string s.sup_rule) s.sup_justification;
            }
        else None)
      suppressions
  in
  let violations =
    List.concat_map (fun (r : Lint.file_report) -> r.violations) reports
    @ stale_violations
    |> List.stable_sort (fun (a : Lint.violation) (b : Lint.violation) ->
           compare
             (a.file, a.line, a.col, Rules.to_string a.rule)
             (b.file, b.line, b.col, Rules.to_string b.rule))
  in
  {
    root;
    files_checked = List.length reports;
    violations;
    suppressions;
    parse_errors =
      List.filter_map
        (fun (r : Lint.file_report) ->
          Option.map (fun msg -> (r.path, msg)) r.parse_error)
        reports;
  }

let stale_suppressions m = List.filter is_stale m.suppressions
let clean m = m.violations = [] && m.parse_errors = []

let to_json m =
  let violations =
    List.map
      (fun (v : Lint.violation) ->
        J.Obj
          [
            ("file", J.String v.file);
            ("line", J.Int v.line);
            ("col", J.Int v.col);
            ("rule", J.String (Rules.to_string v.rule));
            ("title", J.String (Rules.title v.rule));
            ("message", J.String v.message);
            ("hint", J.String (Rules.hint v.rule));
          ])
      m.violations
  in
  let suppression_fields (s : Lint.suppression) =
    [
      ("file", J.String s.sup_file);
      ("line", J.Int s.sup_line);
      ("rule", J.String (Rules.to_string s.sup_rule));
      ("justification", J.String s.sup_justification);
    ]
  in
  let suppressions =
    List.map
      (fun (s : Lint.suppression) ->
        J.Obj
          (suppression_fields s
          @ [
              ("matched", J.Int s.sup_matched);
              ("stale", J.Bool (is_stale s));
            ]))
      m.suppressions
  in
  let parse_errors =
    List.map
      (fun (path, msg) ->
        J.Obj [ ("file", J.String path); ("message", J.String msg) ])
      m.parse_errors
  in
  let rules =
    List.map
      (fun id ->
        J.Obj
          [
            ("id", J.String (Rules.to_string id));
            ("title", J.String (Rules.title id));
            ("contract", J.String (Rules.contract id));
          ])
      Rules.all
  in
  let stale = stale_suppressions m in
  J.Obj
    [
      ("schema", J.String schema);
      ("root", J.String m.root);
      ("files_checked", J.Int m.files_checked);
      ("violation_count", J.Int (List.length m.violations));
      ("suppression_count", J.Int (List.length m.suppressions));
      ("stale_count", J.Int (List.length stale));
      ("parse_error_count", J.Int (List.length m.parse_errors));
      ("rules", J.List rules);
      ("violations", J.List violations);
      ("suppressions", J.List suppressions);
      ( "stale_suppressions",
        J.List (List.map (fun s -> J.Obj (suppression_fields s)) stale) );
      ("parse_errors", J.List parse_errors);
    ]

let to_human m =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (path, msg) ->
      Buffer.add_string buf (Printf.sprintf "%s: PARSE ERROR: %s\n" path msg))
    m.parse_errors;
  List.iter
    (fun (v : Lint.violation) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: [%s] %s\n    hint: %s\n" v.file v.line v.col
           (Rules.to_string v.rule) v.message (Rules.hint v.rule)))
    m.violations;
  let plural n = if n = 1 then "" else "s" in
  let nv = List.length m.violations in
  let ns = List.length m.suppressions in
  let np = List.length m.parse_errors in
  Buffer.add_string buf
    (Printf.sprintf
       "%d file%s checked: %d violation%s, %d suppression%s (%d stale), %d \
        parse error%s\n"
       m.files_checked (plural m.files_checked) nv (plural nv) ns (plural ns)
       (List.length (stale_suppressions m))
       np (plural np));
  Buffer.contents buf
