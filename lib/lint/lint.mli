(** What every [ncg_lint] check shares: the path-based zones ({!ctx}),
    the per-file report types, the suppression plumbing ({!scan_attr},
    {!finish}) and the tree scan ({!ml_files_under}). The checks
    themselves live in {!Typed_lint}. *)

type ctx = {
  prng_exempt : bool;  (** D1 off: the blessed randomness source *)
  clock_exempt : bool;  (** D2 off: the blessed clock *)
  global_state : bool;  (** P1 on: library code reachable from the executor *)
  parallel_impl : bool;  (** P2 off: the fan-out machinery itself *)
  scratch_lender : bool;  (** S1 off: the module that owns the scratch *)
  schema_registry : bool;  (** R1 off: the one blessed literal site *)
  known_schemas : string list;  (** R1: the registered schema tags *)
}

(** Zone assignment for a root-relative path: [lib/prng/*] is
    [prng_exempt], [lib/obs/*] is [clock_exempt], anything under [lib/]
    has [global_state]; [lib/fault/executor.ml] is [parallel_impl], [lib/graph/bfs.ml] and [lib/core/workspace.ml] are
    [scratch_lender], [lib/obs/schema.ml] is [schema_registry]. *)
val ctx_for_path : known_schemas:string list -> string -> ctx

type violation = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler reports *)
  rule : Rules.id;
  message : string;
}

type suppression = {
  sup_file : string;
  sup_line : int;
  sup_rule : Rules.id;
  sup_justification : string;
  sup_matched : int;
      (** raw violations this suppression absorbed — the L2 staleness
          signal *)
}

type file_report = {
  path : string;
  violations : violation list;  (** sorted by position; suppressed ones removed *)
  suppressions : suppression list;  (** every well-formed allow in the file *)
  parse_error : string option;
      (** set iff the file could not be checked (no or stale [.cmt],
          parse or type error) *)
}

(** {2 Suppression plumbing} *)

type raw_suppression = {
  rs_rule : Rules.id;
  rs_from : int;  (** cnum range the suppression covers *)
  rs_to : int;
  rs_line : int;
  rs_justification : string;
}

(** Parse one attribute: [[\@lint.allow "RULE"... "why"]] registers a
    {!raw_suppression} per named rule over [[from_cnum, to_cnum]];
    [[\@lint.domain_local "why"]] registers a P1 suppression; malformed
    annotations are reported as L1 through [add_viol]. Attribute
    payloads stay Parsetree in the Typedtree. *)
val scan_attr :
  add_viol:(Location.t -> Rules.id -> string -> unit) ->
  add_supp:(raw_suppression -> unit) ->
  from_cnum:int ->
  to_cnum:int ->
  Parsetree.attribute ->
  unit

(** Apply suppressions to raw [(violation, cnum)] pairs: suppressed
    violations are dropped, survivors sorted by position, and every
    suppression's [sup_matched] counts the raw violations it absorbed. *)
val finish :
  filename:string ->
  raw_suppression list ->
  (violation * int) list ->
  file_report

(** True when a format string contains a bare [%f] conversion (not
    [%%f]) — the D4 trigger. *)
val has_bare_percent_f : string -> bool

(** {2 Tree scanning} *)

(** Root-relative paths of every [.ml] under [dirs] (relative to
    [root]), sorted; skips [_build] and dot-directories. *)
val ml_files_under : root:string -> dirs:string list -> string list
