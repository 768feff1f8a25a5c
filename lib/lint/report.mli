(** Rendering of lint results: the [ncg.lint.report/3] JSON document and
    its human-readable rendering (see docs/LINTING.md).

    {!merge} folds one run's per-file reports into one document and
    judges L2 staleness. *)

(** ["ncg.lint.report/3"] (= [Ncg_obs.Schema.lint_report]). *)
val schema : string

type t = {
  root : string;
  files_checked : int;
  violations : Lint.violation list;
      (** sorted by position; includes synthesized L2 entries *)
  suppressions : Lint.suppression list;  (** sorted by position *)
  parse_errors : (string * string) list;  (** (file, message) *)
}

(** Fold per-file reports into one document. A suppression that
    absorbed no raw violation is stale and is also synthesized as an L2
    violation at its line. A file that could not be checked carries no
    suppressions, so it is never judged stale. *)
val merge : root:string -> Lint.file_report list -> t

(** The suppressions judged stale, in report order. *)
val stale_suppressions : t -> Lint.suppression list

(** No violations (including synthesized L2) and no parse errors. *)
val clean : t -> bool

(** The full [ncg.lint.report/3] document. *)
val to_json : t -> Ncg_obs.Json.t

(** Parse errors, then one entry per violation
    ([file:line:col: [RULE] message] plus a hint line), then a trailing
    summary line. *)
val to_human : t -> string
