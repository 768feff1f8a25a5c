(* The ncg_lint command line, as a library: the bin/ncg_lint.exe
   compilation unit is itself named Ncg_lint, which shadows this
   library's wrapper module, so the driver logic lives here (wrapped as
   Ncg_lint_cli) and the binary is a one-line trampoline. *)

open Cmdliner

let run root cmt_root json_out =
  let files =
    Ncg_lint.Lint.ml_files_under ~root
      ~dirs:[ "lib"; "bin"; "bench"; "test"; "examples" ]
  in
  if files = [] then begin
    Printf.eprintf "ncg_lint: no .ml files under %s/{lib,bin,bench,test,examples}\n"
      root;
    exit 2
  end;
  (* R1's ground truth: the schema registry is a plain module, linked
     here. *)
  let ctx_of = Ncg_lint.Lint.ctx_for_path ~known_schemas:Ncg_obs.Schema.all in
  let report =
    Ncg_lint.Report.merge ~root
      (Ncg_lint.Typed_lint.check_tree ~ctx_of ~root
         ~cmt_root:(Filename.concat root cmt_root)
         files)
  in
  print_string (Ncg_lint.Report.to_human report);
  (match json_out with
  | Some path -> Ncg_obs.Json.to_file path (Ncg_lint.Report.to_json report)
  | None -> ());
  if not (Ncg_lint.Report.clean report) then exit 1

let root =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to scan.")

let cmt_root =
  Arg.(
    value
    & opt string "_build/default"
    & info [ "cmt-root" ] ~docv:"DIR"
        ~doc:
          "Directory (relative to $(b,--root)) searched recursively for the \
           .cmt files of a prior $(b,dune build @check). A file with no \
           up-to-date .cmt is reported as a parse error.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the ncg.lint.report/3 JSON document here.")

let cmd =
  let doc = "check the determinism/domain-safety/atomicity lint rules" in
  Cmd.v (Cmd.info "ncg_lint" ~doc) Term.(const run $ root $ cmt_root $ json_out)

let main () = exit (Cmd.eval cmd)
