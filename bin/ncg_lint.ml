(* ncg_lint: typed invariant checker for the repo's determinism,
   domain-safety and atomicity contracts (rule catalogue and suppression
   policy in docs/LINTING.md).

   Checks the .cmt of every .ml under lib/, bin/, bench/, test/ and
   examples/ relative to --root (run `dune build @check` first), prints
   one line per violation (file:line:col, rule id, fix hint) and exits 1
   on any violation or parse error. --json FILE additionally writes the
   machine-readable ncg.lint.report/3 document (atomically).

   Example:
     dune build @check
     dune exec bin/ncg_lint.exe -- --root . --json lint-report.json

   This unit is a trampoline: its module name (Ncg_lint) shadows the
   checker library, so the real driver lives in Ncg_lint_cli. *)

let () = Ncg_lint_cli.Cli.main ()
