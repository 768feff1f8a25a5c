(* Tests for ncg_lint: per-rule accepting and rejecting fixture
   snippets typed in-process, a smuggling-vector matrix proving aliases
   cannot hide a forbidden identifier, fixtures for the semantic-only
   rules (S1, P2, R1), staleness (L2) semantics, a golden JSON snapshot
   of ncg.lint.report/3, and the assertion that the live codebase lints
   clean. *)

module Lint = Ncg_lint.Lint
module Typed = Ncg_lint.Typed_lint
module Rules = Ncg_lint.Rules
module Report = Ncg_lint.Report
module Json = Ncg_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let known_schemas =
  ([ "ncg.test.alpha/1"; "ncg.test.beta/2" ]
  [@lint.allow
    "R1" "fixture registry for the R1 tests, distinct from the real one"])

(* Zone contexts, derived exactly as the driver derives them. *)
let ctx_for = Lint.ctx_for_path ~known_schemas
let lib_ctx = ctx_for "lib/core/fixture.ml"
let bin_ctx = ctx_for "bin/fixture.ml"
let prng_ctx = ctx_for "lib/prng/fixture.ml"
let obs_ctx = ctx_for "lib/obs/fixture.ml"
let schema_ctx = ctx_for "lib/obs/schema.ml"

(* --- Fixture plumbing -------------------------------------------------------- *)

(* Under [dune runtest] the cwd is _build/default/test and the sources
   live in its parent (dune copies them into the build tree); under
   [dune exec] the cwd is the workspace root itself. Walk upward to the
   nearest directory holding a dune-project. *)
let rec project_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "no dune-project above the test cwd"
    else project_root parent

let root = lazy (project_root (Sys.getcwd ()))

(* .cmi directory of a dune library: directly under the project root
   when that root is the build tree (dune runtest), otherwise under
   _build/default (dune exec from the workspace root). *)
let objs_dir sub lib =
  let rel = Printf.sprintf "%s/.%s.objs/byte" sub lib in
  let direct = Filename.concat (Lazy.force root) rel in
  if Sys.file_exists direct then direct
  else Filename.concat (Lazy.force root) (Filename.concat "_build/default" rel)

(* Enough of the project's cmis to type fixtures that borrow scratch
   buffers (Ncg_graph.Bfs, Ncg.Workspace) and fan out (Ncg_fault.Executor);
   the rest are transitive signature dependencies of lib/core. *)
let ncg_dirs =
  lazy
    (List.map
       (fun (sub, lib) -> objs_dir sub lib)
       [
         ("lib/util", "ncg_util");
         ("lib/prng", "ncg_prng");
         ("lib/graph", "ncg_graph");
         ("lib/stats", "ncg_stats");
         ("lib/solver", "ncg_solver");
         ("lib/obs", "ncg_obs");
         ("lib/fault", "ncg_fault");
         ("lib/core", "ncg");
       ])

let unix_dir = lazy (Filename.concat Config.standard_library "unix")

let typed_report ?(ctx = lib_ctx) ?(filename = "fixture.ml") ?(with_ncg = false)
    ?(with_unix = false) source =
  let include_dirs =
    (if with_ncg then Lazy.force ncg_dirs else [])
    @ if with_unix then [ Lazy.force unix_dir ] else []
  in
  Typed.check_source_typed ~ctx ~filename ~include_dirs source

let typed_rules_of ?ctx ?with_ncg ?with_unix source =
  let r = typed_report ?ctx ?with_ncg ?with_unix source in
  (match r.Lint.parse_error with
  | Some msg -> Alcotest.failf "fixture failed to type:\n%s\n---\n%s" source msg
  | None -> ());
  List.map (fun (v : Lint.violation) -> v.Lint.rule) r.Lint.violations

let typed_accepts ?ctx ?with_ncg ?with_unix source =
  check_bool source true (typed_rules_of ?ctx ?with_ncg ?with_unix source = [])

let typed_rejects ?ctx ?with_ncg ?with_unix rule source =
  check_bool source true
    (List.mem rule (typed_rules_of ?ctx ?with_ncg ?with_unix source))

(* --- Zones ----------------------------------------------------------------- *)

let test_zones () =
  check_bool "lib has the global-state rule" true lib_ctx.Lint.global_state;
  check_bool "prng" true prng_ctx.Lint.prng_exempt;
  check_bool "obs" true obs_ctx.Lint.clock_exempt;
  check_bool "bin has no global-state rule" false bin_ctx.Lint.global_state;
  check_bool "bin not exempt" false bin_ctx.Lint.prng_exempt;
  check_bool "executor is the parallel impl" true
    (ctx_for "lib/fault/executor.ml").Lint.parallel_impl;
  check_bool "other fault files are not" false
    (ctx_for "lib/fault/inject.ml").Lint.parallel_impl;
  check_bool "bfs lends scratch" true
    (ctx_for "lib/graph/bfs.ml").Lint.scratch_lender;
  check_bool "workspace lends scratch" true
    (ctx_for "lib/core/workspace.ml").Lint.scratch_lender;
  check_bool "schema.ml is the registry" true schema_ctx.Lint.schema_registry;
  check_bool "plain obs files are not" false obs_ctx.Lint.schema_registry

let test_rule_catalogue () =
  check_int "eleven rules" 11 (List.length Rules.all);
  List.iter
    (fun id ->
      match Rules.of_string (Rules.to_string id) with
      | Some id' -> check_bool (Rules.to_string id) true (id = id')
      | None -> Alcotest.failf "%s does not round-trip" (Rules.to_string id))
    Rules.all

(* --- Identifier rules ------------------------------------------------------ *)

let test_d1 () =
  typed_rejects Rules.D1 "let x = Random.int 5";
  typed_rejects Rules.D1 "let () = Random.self_init ()";
  typed_rejects Rules.D1 "let roll () = Random.int 6";
  typed_rejects Rules.D1 "open Random";
  typed_rejects Rules.D1 "let x = Stdlib.Random.bool ()";
  typed_rejects ~ctx:bin_ctx Rules.D1 "let x = Random.int 5";
  typed_accepts ~ctx:prng_ctx "let x = Random.int 5";
  typed_accepts ~ctx:prng_ctx "open Random";
  typed_accepts ~with_ncg:true "let x rng = Ncg_prng.Rng.int rng 5";
  typed_accepts "let random_walk = 3 (* mentions Random only in a comment *)"

let test_d2 () =
  typed_rejects ~with_unix:true Rules.D2 "let t = Unix.gettimeofday ()";
  typed_rejects ~with_unix:true Rules.D2 "let t = Unix.time ()";
  typed_rejects Rules.D2 "let t = Sys.time ()";
  typed_accepts ~with_unix:true ~ctx:obs_ctx "let t = Unix.gettimeofday ()";
  typed_accepts ~with_unix:true "let pid = Unix.getpid ()";
  typed_accepts ~with_ncg:true "let t = Ncg_obs.Clock.now_ns ()"

let test_d3 () =
  typed_rejects Rules.D3 "let g f t = Hashtbl.iter f t";
  typed_rejects Rules.D3 "let g f t = Hashtbl.fold f t []";
  typed_rejects Rules.D3 "let g f t = Stdlib.Hashtbl.fold f t []";
  (* The rule holds in every zone, including lib/obs and bin. *)
  typed_rejects ~ctx:obs_ctx Rules.D3 "let g f t = Hashtbl.iter f t";
  typed_rejects ~ctx:bin_ctx Rules.D3 "let g f t = Hashtbl.iter f t";
  typed_accepts "let g t k = Hashtbl.find_opt t k";
  typed_accepts "let g f xs = List.iter f xs";
  typed_accepts "let n t = Hashtbl.length t"

let test_d4 () =
  typed_rejects Rules.D4 "let s x = string_of_float x";
  typed_rejects Rules.D4 "let s x = Float.to_string x";
  typed_rejects Rules.D4 {|let p x = Printf.printf "%f" x|};
  typed_rejects Rules.D4 {|let s x = Printf.sprintf "x=%f" x|};
  typed_rejects Rules.D4 {|let p x = Format.printf "%f" x|};
  typed_accepts {|let s x = Printf.sprintf "%.17g" x|};
  typed_accepts {|let s x = Printf.sprintf "%g" x|};
  typed_accepts {|let s = Printf.sprintf "100%%fun"|};
  typed_accepts {|let s = Printf.sprintf "%d" 3|};
  (* A bare %f outside a printf-family call is just a string. *)
  typed_accepts {|let s = "%f"|}

let test_p1 () =
  typed_rejects Rules.P1 "let count = ref 0";
  typed_rejects Rules.P1 "let cache : (int, int) Hashtbl.t = Hashtbl.create 16";
  typed_rejects Rules.P1 "let buf = Array.make 4 0";
  typed_rejects Rules.P1 "let b = Buffer.create 64";
  typed_rejects Rules.P1 "let q : int Queue.t = Queue.create ()";
  typed_rejects Rules.P1 "module M = struct let inner = ref 0 end";
  (* The shape check sees through an initializer block (bitset.ml's
     pop16 table is exactly this shape). *)
  typed_rejects Rules.P1
    "let table = let t = Bytes.create 16 in Bytes.fill t 0 16 'x'; t";
  typed_accepts "let x = Atomic.make 0";
  typed_accepts "let k = Domain.DLS.new_key (fun () -> ref 0)";
  typed_accepts "let m = Mutex.create ()";
  typed_accepts "let f () = ref 0 (* local state is fine *)";
  typed_accepts "let xs = [ 1; 2; 3 ]";
  (* P1 is a library rule: executables are single-entry. *)
  typed_accepts ~ctx:bin_ctx "let count = ref 0"

let test_a1 () =
  typed_rejects Rules.A1 {|let oc = open_out "x.json"|};
  typed_rejects Rules.A1 {|let oc = open_out_bin "x.bin"|};
  typed_rejects Rules.A1 {|let oc = Out_channel.open_text "x.txt"|};
  typed_rejects ~ctx:obs_ctx Rules.A1 {|let oc = open_out "x.json"|};
  typed_accepts {|let ic = open_in "x.json"|};
  typed_accepts ~with_ncg:true
    {|let w body = Ncg_obs.Atomic_file.write "x.md" body|}

let test_l1 () =
  typed_rejects Rules.L1 {|let x f t = (Hashtbl.fold [@lint.allow "D3"]) f t []|};
  typed_rejects Rules.L1 {|let x = 1 [@@lint.allow "Z9" "unknown rule"]|};
  typed_rejects Rules.L1
    "let cache : (int, int) Hashtbl.t = Hashtbl.create 16 [@@lint.domain_local]";
  typed_accepts
    {|let x f t = (Hashtbl.fold [@lint.allow "D3" "sorted before escaping"]) f t []|};
  typed_accepts
    {|let cache : (int, int) Hashtbl.t = Hashtbl.create 16 [@@lint.domain_local "init only"]|}

(* --- The smuggling matrix: aliases cannot hide an identifier --------------- *)

let smuggling_vectors =
  [
    ( "module alias",
      Rules.D3,
      "module H = Hashtbl\nlet f tbl = H.iter (fun _ _ -> ()) tbl",
      false );
    ( "include",
      Rules.D3,
      "module M = struct include Hashtbl end\n\
       let f tbl = M.iter (fun _ _ -> ()) tbl",
      false );
    ( "first-class value",
      Rules.D3,
      "module H = Hashtbl\nlet it = H.iter\nlet g tbl = it (fun _ _ -> ()) tbl",
      false );
    ( "functor argument",
      Rules.D3,
      "module F (T : module type of Hashtbl) = struct\n\
      \  let go tbl = T.iter (fun _ _ -> ()) tbl\n\
       end\n\
       module Use = F (Hashtbl)",
      false );
    ( "re-export (alias of alias)",
      Rules.D3,
      "module A = Hashtbl\n\
       module B = A\n\
       let f tbl = B.fold (fun _ _ n -> n) tbl 0",
      false );
    ("random alias", Rules.D1, "module R = Random\nlet roll () = R.int 6", false);
    ( "clock alias",
      Rules.D2,
      "module U = Unix\nlet now () = U.gettimeofday ()",
      true );
    ( "float-format alias",
      Rules.D4,
      "module Fl = Float\nlet show (x : float) = Fl.to_string x",
      false );
    ( "channel alias",
      Rules.A1,
      "module O = Out_channel\nlet f p = O.open_text p",
      false );
  ]

let test_smuggling_matrix () =
  List.iter
    (fun (label, rule, src, with_unix) ->
      check_bool (label ^ ": typed pass catches it") true
        (List.mem rule (typed_rules_of ~with_unix src)))
    smuggling_vectors

(* --- S1: borrowed scratch views must not escape ---------------------------- *)

let test_s1 () =
  (* Returning the lender's buffer hands the caller a view that the next
     run will silently invalidate. *)
  typed_rejects ~with_ncg:true Rules.S1
    "let leak s = Ncg_graph.Bfs.dist_array s";
  (* Storing it in a ref. *)
  typed_rejects ~with_ncg:true Rules.S1
    "let stash s (r : int array ref) = r := Ncg_graph.Bfs.dist_array s";
  (* Packing it into a tuple. *)
  typed_rejects ~with_ncg:true Rules.S1
    "let pack s = (Ncg_graph.Bfs.visit_order s, 0)";
  (* Via a let-bound name (taint tracking). *)
  typed_rejects ~with_ncg:true Rules.S1
    "let bad s = let d = Ncg_graph.Bfs.dist_array s in Some d";
  (* A workspace pool field packed into a container escapes the run. *)
  typed_rejects ~with_ncg:true Rules.S1
    "let grab (w : Ncg.Workspace.t) = (w.Ncg.Workspace.bfs, 0)";
  (* Copying first is the documented idiom. *)
  typed_accepts ~with_ncg:true
    "let ok s = Array.copy (Ncg_graph.Bfs.dist_array s)";
  (* Reading an element in place is fine. *)
  typed_accepts ~with_ncg:true
    "let ok2 s v = (Ncg_graph.Bfs.dist_array s).(v)";
  (* Threading a pool through a call is in-run plumbing, not an escape. *)
  typed_accepts ~with_ncg:true
    "let ok3 (w : Ncg.Workspace.t) f = f w.Ncg.Workspace.bfs";
  (* A ball view borrowed from the host graph, stored into a ref, outlives
     the step; reading it in place does not. *)
  typed_rejects ~with_ncg:true Rules.S1
    "let stash_view scratch st g (r : Ncg.Ball_view.t option ref) =\n\
    \  let v = Ncg.Ball_view.borrow ~scratch st g ~k:2 0 in\n\
    \  r := Some v";
  typed_accepts ~with_ncg:true
    "let size scratch st g =\n\
    \  (Ncg.Ball_view.borrow ~scratch st g ~k:2 0).Ncg.Ball_view.size";
  (* The graph an adjacency lends changes with the next move. *)
  typed_rejects ~with_ncg:true Rules.S1
    "let stash_graph a (r : Ncg_graph.Graph.t ref) = r := Ncg_graph.Graph.borrow a";
  typed_accepts ~with_ncg:true
    "let order a = Ncg_graph.Graph.order (Ncg_graph.Graph.borrow a)"

(* --- P2: no cross-domain capture of unsynchronized mutable state ----------- *)

let test_p2 () =
  typed_rejects ~with_ncg:true Rules.P2
    "let bad n =\n\
    \  let acc = ref 0 in\n\
    \  Ncg_fault.Executor.map\n\
    \    (fun ~index -> acc := !acc + index; index) n";
  typed_rejects ~with_ncg:true Rules.P2
    "let bad2 (a : int array) n =\n\
    \  Ncg_fault.Executor.map (fun ~index -> a.(index)) n";
  typed_rejects Rules.P2 "let bad3 (r : int ref) = Domain.spawn (fun () -> r := 1)";
  (* Atomics are the sanctioned cross-domain channel. *)
  typed_accepts ~with_ncg:true
    "let ok n =\n\
    \  let c = Atomic.make 0 in\n\
    \  Ncg_fault.Executor.map\n\
    \    (fun ~index -> Atomic.incr c; index) n";
  (* Capturing immutable data is what the fan-out is for. *)
  typed_accepts ~with_ncg:true
    "let ok2 k n = Ncg_fault.Executor.map (fun ~index -> index + k) n";
  (* A justified allow works at the fan-out site. *)
  typed_accepts ~with_ncg:true
    "let ok3 (a : int array) n =\n\
    \  (Ncg_fault.Executor.map (fun ~index -> a.(index)) n\n\
    \  [@lint.allow \"P2\" \"read-only in this fixture\"])"

(* --- R1: schema literals live in the registry ------------------------------ *)

let test_r1 () =
  (* A schema-shaped literal that is not registered at all. *)
  typed_rejects Rules.R1 {|let tag = "ncg.rogue.thing/9"|};
  (* Registered, but spelled out instead of referencing the registry. *)
  typed_rejects Rules.R1 {|let tag = "ncg.test.alpha/1"|};
  (* Non-schema strings are untouched. *)
  typed_accepts {|let s = "not a schema at all"|};
  typed_accepts {|let s = "ncg"|};
  (* Inside the registry module itself the literals are the point. *)
  typed_accepts ~ctx:schema_ctx {|let tag = "ncg.test.alpha/1"|};
  (* An explicit allow (e.g. a deliberately-unknown tag in a test). *)
  typed_accepts
    {|let tag = ("ncg.rogue.thing/9" [@lint.allow "R1" "fixture: unknown tag"])|}

(* --- Suppressions, positions, parse errors --------------------------------- *)

let test_suppressions () =
  (* An allow on the enclosing binding covers violations inside it. *)
  let src =
    {|let s x = Printf.sprintf "%f" x [@@lint.allow "D4" "legacy format kept for diffability"]|}
  in
  check_bool "binding-scope allow" true (typed_rules_of src = []);
  let r = typed_report ~filename:"f.ml" src in
  check_int "recorded" 1 (List.length r.Lint.suppressions);
  let s = List.hd r.Lint.suppressions in
  check_string "rule" "D4" (Rules.to_string s.Lint.sup_rule);
  check_string "justification" "legacy format kept for diffability"
    s.Lint.sup_justification;
  check_int "absorbed one violation" 1 s.Lint.sup_matched;
  (* The suppression is scoped: a second violation outside it still fires. *)
  let src2 =
    src ^ "\n\nlet t = Unix.gettimeofday ()\nlet u = string_of_float 1.0"
  in
  check_bool "scoped" true
    (typed_rules_of ~with_unix:true src2 = [ Rules.D2; Rules.D4 ]);
  (* A floating [@@@lint.allow] covers the whole file. *)
  let src3 =
    {|[@@@lint.allow "D2" "fixture: timing scratch file"]
let t = Unix.gettimeofday ()
let u = Sys.time ()|}
  in
  check_bool "file-wide" true (typed_rules_of ~with_unix:true src3 = []);
  let r3 = typed_report ~with_unix:true ~filename:"f.ml" src3 in
  check_int "file-wide absorbed both" 2
    (List.fold_left
       (fun n (s : Lint.suppression) -> n + s.Lint.sup_matched)
       0 r3.Lint.suppressions);
  (* One allow can name several rules before the justification. *)
  let src4 =
    {|let f t =
  (Hashtbl.iter [@lint.allow "D3" "D1" "fixture: both rules at once"])
    (fun _ () -> ignore (Random.int 2))
    t|}
  in
  check_bool "multi-rule allow" true
    (match typed_rules_of src4 with
    | [] -> true
    | [ Rules.D1 ] -> true
    | _ -> false)

let test_parse_error () =
  let r = typed_report ~filename:"broken.ml" "let let = in" in
  check_bool "parse error recorded" true (r.Lint.parse_error <> None);
  check_int "no violations" 0 (List.length r.Lint.violations);
  check_bool "not clean" false (Report.clean (Report.merge ~root:"." [ r ]));
  (* A file that parses but does not type is an error too. *)
  let t =
    typed_report ~filename:"broken2.ml" "let x = no_such_identifier 42"
  in
  check_bool "typing error recorded" true (t.Lint.parse_error <> None)

let test_positions () =
  let r =
    typed_report ~with_unix:true ~filename:"pos.ml"
      "let a = 1\nlet t = Unix.gettimeofday ()\n"
  in
  match r.Lint.violations with
  | [ v ] ->
      check_string "file" "pos.ml" v.Lint.file;
      check_int "line" 2 v.Lint.line;
      check_int "col" 8 v.Lint.col
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* --- L2 staleness ---------------------------------------------------------- *)

let test_stale_suppression () =
  let file = "lib/core/fix.ml" in
  (* The excused code is gone: nothing left for the allow to absorb. *)
  let src = {|let x = 1 [@@lint.allow "D3" "nothing to excuse anymore"]|} in
  let m = Report.merge ~root:"." [ typed_report ~filename:file src ] in
  check_int "judged stale" 1 (List.length (Report.stale_suppressions m));
  check_bool "synthesized as L2" true
    (List.exists
       (fun (v : Lint.violation) -> v.Lint.rule = Rules.L2)
       m.Report.violations);
  check_bool "stale report is not clean" false (Report.clean m);
  (* A live suppression is not stale. *)
  let live =
    {|let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl [@@lint.allow "D3" "fixture"]|}
  in
  let m2 = Report.merge ~root:"." [ typed_report ~filename:file live ] in
  check_int "live: no stale" 0 (List.length (Report.stale_suppressions m2));
  check_bool "live report clean" true (Report.clean m2);
  (match m2.Report.suppressions with
  | [ sup ] -> check_int "matched once" 1 sup.Lint.sup_matched
  | sups -> Alcotest.failf "expected 1 suppression, got %d" (List.length sups));
  (* A file that could not be checked is never judged: absence of
     evidence from a broken build is not staleness. *)
  let half = {|let x = no_such_identifier 42 [@@lint.allow "D3" "pending"]|} in
  let t3 = typed_report ~filename:file half in
  check_bool "typing errored" true (t3.Lint.parse_error <> None);
  let m3 = Report.merge ~root:"." [ t3 ] in
  check_int "erroring file: not judged" 0
    (List.length (Report.stale_suppressions m3))

(* --- JSON report ----------------------------------------------------------- *)

let fixture_reports () =
  [
    typed_report ~with_unix:true ~filename:"lib/core/a.ml"
      "let t = Unix.gettimeofday ()\n";
    typed_report ~filename:"lib/core/b.ml"
      {|let cache : (int, int) Hashtbl.t = Hashtbl.create 16 [@@lint.domain_local "init-time only"]|};
    typed_report ~filename:"lib/core/broken.ml" "let let";
  ]

let test_report_counts () =
  let m = Report.merge ~root:"." (fixture_reports ()) in
  check_int "files" 3 m.Report.files_checked;
  check_int "violations" 1 (List.length m.Report.violations);
  check_int "suppressions" 1 (List.length m.Report.suppressions);
  check_int "parse errors" 1 (List.length m.Report.parse_errors);
  check_bool "not clean" false (Report.clean m);
  check_bool "human output mentions rule" true
    (let human = Report.to_human m in
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains human "[D2]" && contains human "PARSE ERROR")

(* Golden snapshot of the machine-readable document: the schema is a
   published artifact (CI uploads it), so its exact shape is pinned. *)
let test_report_golden () =
  let reports =
    match fixture_reports () with a :: b :: _ -> [ a; b ] | _ -> assert false
  in
  let doc = Report.to_json (Report.merge ~root:"." reports) in
  let field name =
    match doc with
    | Json.Obj fields -> List.assoc name fields
    | _ -> Alcotest.fail "report is not an object"
  in
  (* Structure: every top-level field present, in order. *)
  (match doc with
  | Json.Obj fields ->
      check_bool "field order" true
        (List.map fst fields
        = [
            "schema";
            "root";
            "files_checked";
            "violation_count";
            "suppression_count";
            "stale_count";
            "parse_error_count";
            "rules";
            "violations";
            "suppressions";
            "stale_suppressions";
            "parse_errors";
          ])
  | _ -> Alcotest.fail "report is not an object");
  check_bool "schema tag" true
    (field "schema"
    = Json.String
        ("ncg.lint.report/3"
        [@lint.allow "R1" "the golden test pins the published spelling"]));
  (* Byte-exact goldens for a violation and a suppression entry. *)
  check_string "violation json"
    ("[{\"file\":\"lib/core/a.ml\",\"line\":1,\"col\":8,\"rule\":\"D2\","
   ^ "\"title\":\"wall-clock read outside lib/obs\","
   ^ "\"message\":\"Unix.gettimeofday: wall-clock read outside the Clock \
      module\","
   ^ "\"hint\":\"use Ncg_obs.Clock.now_ns / Clock.elapsed_ns\"}]")
    (Json.to_string (field "violations"));
  check_string "suppression json"
    ("[{\"file\":\"lib/core/b.ml\",\"line\":1,\"rule\":\"P1\","
   ^ "\"justification\":\"init-time only\",\"matched\":1,\"stale\":false}]")
    (Json.to_string (field "suppressions"));
  (* The whole document round-trips through the in-house parser. *)
  match Json.of_string (Json.to_string doc) with
  | Ok v -> check_bool "round-trip" true (v = doc)
  | Error e -> Alcotest.failf "report does not reparse: %s" e

(* --- The live codebase lints clean ----------------------------------------- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The test stanza depends on the check alias, so every file has an
   up-to-date .cmt here: a missing or stale one fails like a violation. *)
let test_live_tree_clean () =
  let root = Lazy.force root in
  let files =
    Lint.ml_files_under ~root ~dirs:[ "lib"; "bin"; "bench"; "test"; "examples" ]
  in
  (* The enlarged scan (test/ and examples/ included) must actually pick
     the extra trees up, not silently fall back to the library dirs. *)
  check_bool "found the tree" true (List.length files > 80);
  check_bool "scan includes test/" true
    (List.exists (starts_with "test/") files);
  check_bool "scan includes examples/" true
    (List.exists (starts_with "examples/") files);
  let ctx_of = Lint.ctx_for_path ~known_schemas:Ncg_obs.Schema.all in
  let cmt_root =
    let cand = Filename.concat root "_build/default" in
    if Sys.file_exists cand then cand else root
  in
  let m = Report.merge ~root (Typed.check_tree ~ctx_of ~root ~cmt_root files) in
  if not (Report.clean m) then
    Alcotest.failf "the tree does not lint clean:\n%s" (Report.to_human m);
  check_int "no stale suppressions" 0
    (List.length (Report.stale_suppressions m))

let () =
  Alcotest.run "ncg_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "zones" `Quick test_zones;
          Alcotest.test_case "catalogue round-trip" `Quick test_rule_catalogue;
          Alcotest.test_case "D1 randomness" `Quick test_d1;
          Alcotest.test_case "D2 wall clock" `Quick test_d2;
          Alcotest.test_case "D3 hash iteration" `Quick test_d3;
          Alcotest.test_case "D4 float formatting" `Quick test_d4;
          Alcotest.test_case "P1 global state" `Quick test_p1;
          Alcotest.test_case "A1 bare open_out" `Quick test_a1;
          Alcotest.test_case "L1 malformed annotations" `Quick test_l1;
        ] );
      ( "typed",
        [
          Alcotest.test_case "smuggling matrix" `Quick test_smuggling_matrix;
          Alcotest.test_case "S1 scratch escape" `Quick test_s1;
          Alcotest.test_case "P2 cross-domain capture" `Quick test_p2;
          Alcotest.test_case "R1 schema literals" `Quick test_r1;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "allow scoping" `Quick test_suppressions;
          Alcotest.test_case "parse errors" `Quick test_parse_error;
          Alcotest.test_case "positions" `Quick test_positions;
        ] );
      ( "report",
        [
          Alcotest.test_case "counts + human" `Quick test_report_counts;
          Alcotest.test_case "golden json" `Quick test_report_golden;
          Alcotest.test_case "L2 staleness" `Quick test_stale_suppression;
        ] );
      ( "live",
        [
          Alcotest.test_case "codebase lints clean" `Quick test_live_tree_clean;
        ] );
    ]
