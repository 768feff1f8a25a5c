(** The [ncg_lint] pass: a Typedtree walker over the compiler's [.cmt]
    output (dune's default [-bin-annot]).

    Every identifier is resolved to its {e defining} compilation unit
    through the [Shape.Uid.t] carried on [Texp_ident], so
    [module H = Hashtbl], [include Hashtbl], [let f = Hashtbl.iter] and
    functor arguments all fire the same rules as the idiomatic spelling.
    Besides the identifier rules (D1–D4, A1, P1, L1) it checks
    the three semantic-only rules: S1 (scratch-view escape), P2
    (cross-domain mutable capture) and R1 (schema-literal registry).

    The price is needing a build: a file with no up-to-date [.cmt] is
    reported as a [parse_error], never silently skipped. *)

(** Check every root-relative file in [files], resolving cmts under
    [cmt_root] (e.g. [_build/default]) by each cmt's recorded source
    file. A file gets a [parse_error] report when it has no cmt, or its
    cmt is unreadable, carries no implementation, or records a source
    digest that no longer matches the file (stale build). *)
val check_tree :
  ctx_of:(string -> Lint.ctx) ->
  root:string ->
  cmt_root:string ->
  string list ->
  Lint.file_report list

(** Type [source] in-process (fixture tests): parse, then run the host
    compiler's typechecker with [include_dirs] prepended to the load
    path, and check the resulting typedtree. Parse and typing failures
    are reported as [parse_error]. Mutates global compiler state
    (Clflags/Load_path/Env), so not reentrant — fine for tests. *)
val check_source_typed :
  ctx:Lint.ctx ->
  filename:string ->
  ?include_dirs:string list ->
  string ->
  Lint.file_report
