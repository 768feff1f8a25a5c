(* The ncg_lint pass: Typedtree-level and alias-aware.

   Dune's default [-bin-annot] leaves a .cmt per module under _build,
   whose Typedtree carries a resolved [Types.value_description] on every
   [Texp_ident] — and its [val_uid : Shape.Uid.t] names the *defining*
   compilation unit, no matter how many aliases, includes, first-class
   rebindings or functor arguments the reference travelled through.
   Matching on (defining unit, value name) therefore catches every route
   to [Hashtbl.iter] — [module H = Hashtbl], [include Hashtbl],
   [let f = Hashtbl.iter], functor plumbing — with no environment
   rehydration at all.

   On top of the resolved tree live the three rules only semantics can
   express: S1 (borrowed scratch views must not escape), P2 (closures
   crossing a domain boundary must not capture plain mutable state) and
   R1 (ncg.*/N schema literals live only in the registry). Suppressions
   are parsed by Lint.scan_attr — attribute payloads stay Parsetree. *)

open Typedtree

(* --- Identifier resolution ------------------------------------------------- *)

let uid_comp_unit (uid : Shape.Uid.t) =
  match uid with
  | Shape.Uid.Compilation_unit s -> Some s
  | Shape.Uid.Item { comp_unit; _ } -> Some comp_unit
  | Shape.Uid.Internal | Shape.Uid.Predef _ -> None

(* (defining compilation unit, value name, spelling-as-written). *)
let resolve e =
  match e.exp_desc with
  | Texp_ident (path, _, vd) -> (
      match uid_comp_unit vd.Types.val_uid with
      | Some cu -> Some (cu, Path.last path, Path.name path)
      | None -> None)
  | _ -> None

(* "H.iter = Hashtbl.iter" when the spelling hides the origin. *)
let origin_display ~cu ~name ~spelled =
  let origin =
    if cu = "Stdlib" then name
    else
      let m =
        if String.length cu > 8 && String.sub cu 0 8 = "Stdlib__" then
          String.capitalize_ascii (String.sub cu 8 (String.length cu - 8))
        else cu
      in
      m ^ "." ^ name
  in
  if spelled = origin then spelled else spelled ^ " = " ^ origin

let rec path_parts = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_parts p @ [ s ]
  | Path.Papply (a, b) -> path_parts a @ path_parts b
  | Path.Pextra_ty (p, _) -> path_parts p

(* Is a captured value's type safe to share across domains, plainly
   mutable, or neither? Works without an Env, so type abbreviations are
   judged by their printed path — good enough for the concrete stdlib
   containers P2 polices. *)
let rec type_mutability ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      let parts = path_parts p in
      let has n = List.mem n parts in
      let last = Path.last p in
      if has "Atomic" || has "Mutex" || has "Condition" || has "Semaphore" || has "DLS"
      then `Safe
      else if last = "ref" then `Mut "a ref cell"
      else if last = "array" then
        match args with
        | [ elt ] when type_mutability elt = `Safe -> `Safe
        | _ -> `Mut "an array"
      else if last = "bytes" then `Mut "a bytes buffer"
      else if last = "t" && has "Hashtbl" then `Mut "a hash table"
      else if last = "t" && has "Buffer" then `Mut "a buffer"
      else if last = "t" && has "Queue" then `Mut "a queue"
      else if last = "t" && has "Stack" then `Mut "a stack"
      else `Neutral
  | _ -> `Neutral

(* The P1 constructor shapes, uid-resolved (so [module A = Array] and
   friends cannot hide them). [local] resolves idents bound to mutable
   state earlier in the file, so initializer blocks
   ([let t = Bytes.create n in ...fill...; t]) are judged by what they
   ultimately evaluate to. *)
let rec typed_mutable_shape ~local e =
  match e.exp_desc with
  | Texp_let (_, _, body) -> typed_mutable_shape ~local body
  | Texp_sequence (_, body) -> typed_mutable_shape ~local body
  | Texp_ident (Path.Pident id, _, _) -> local id
  | Texp_apply (f, _) -> (
      match resolve f with
      | Some ("Stdlib", "ref", _) -> Some "ref cell"
      | Some ("Stdlib__Array", ("make" | "init" | "create_float" | "make_matrix"), _)
        ->
          Some "array"
      | Some ("Stdlib__Bytes", ("create" | "make"), _) -> Some "bytes buffer"
      | Some ("Stdlib__Hashtbl", "create", _) -> Some "hash table"
      | Some ("Stdlib__Buffer", "create", _) -> Some "buffer"
      | Some ("Stdlib__Queue", "create", _) -> Some "queue"
      | Some ("Stdlib__Stack", "create", _) -> Some "stack"
      | _ -> None)
  | _ -> None

let pat_bound_idents : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (_, id, _) -> [ id ]
  | _ -> []

(* Ident uses in [e0] not bound by a pattern inside [e0] — the free
   variables a closure captures from its enclosing scope. *)
let free_ident_uses e0 =
  let bound = ref [] in
  let uses = ref [] in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.pat =
        (fun it p ->
          List.iter (fun id -> bound := id :: !bound) (pat_bound_idents p);
          default.Tast_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) -> uses := (id, e) :: !uses
          | _ -> ());
          default.Tast_iterator.expr it e);
    }
  in
  it.Tast_iterator.expr it e0;
  List.filter
    (fun (id, _) -> not (List.exists (Ident.same id) !bound))
    (List.rev !uses)

(* --- The walker ------------------------------------------------------------ *)

let printf_unit = function
  | "Stdlib__Printf" | "Stdlib__Format" -> true
  | _ -> false

(* Fan-out points whose function argument runs on another domain. *)
let fanout_point cu name =
  match (cu, name) with
  | "Ncg_fault__Executor", "map" -> true
  | "Stdlib__Domain", "spawn" -> true
  | _ -> false

(* Mutable stores: a borrowed view reaching any argument of these
   outlives the expression (or, for Array.set on the view itself,
   mutates a buffer the caller does not own). Copy-out helpers
   (Array.copy / Array.sub / Array.blit) deliberately do not appear —
   passing a view to an ordinary function is the blessed consumption
   idiom. *)
let s1_sink cu name =
  match (cu, name) with
  | "Stdlib", (":=" | "ref") -> true
  | "Stdlib__Atomic", ("make" | "set" | "exchange") -> true
  | "Stdlib__Hashtbl", ("add" | "replace") -> true
  | "Stdlib__Queue", ("add" | "push") -> true
  | "Stdlib__Stack", "push" -> true
  | "Stdlib__Array", ("set" | "unsafe_set" | "fill") -> true
  | _ -> false

let run_checks ~(ctx : Lint.ctx) ~filename (str : structure) =
  let viols = ref [] in
  let supps = ref [] in
  let add_viol loc rule message =
    let p = loc.Location.loc_start in
    viols :=
      ( {
          Lint.file = filename;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          message;
        },
        p.Lexing.pos_cnum )
      :: !viols
  in
  let add_supp s = supps := s :: !supps in
  let handle_attrs loc attrs =
    let from_cnum = loc.Location.loc_start.Lexing.pos_cnum in
    let to_cnum = loc.Location.loc_end.Lexing.pos_cnum in
    List.iter (Lint.scan_attr ~add_viol ~add_supp ~from_cnum ~to_cnum) attrs
  in
  (* S1 taint: idents currently bound to a borrowed scratch view. Idents
     are globally unique, so the list only ever grows. *)
  let tainted = ref [] in
  let is_tainted id = List.exists (Ident.same id) !tainted in
  (* P2 side table: idents bound to plainly-mutable state anywhere in
     the file (the type check below misses abbreviations; this catches
     the common [let acc = ref [] in ... Executor.map ...] shape). *)
  let local_shapes = ref [] in
  let local_shape id =
    List.find_map
      (fun (i, w) -> if Ident.same i id then Some w else None)
      !local_shapes
  in
  (* Two strengths of borrow. A [`View] (a Bfs.dist_array / visit_order
     result, a Ball_view.borrow view of the host graph, or the graph
     Graph.borrow lends from an adjacency) is invalidated by the very
     next run or move, so even returning it upward is a bug. A [`Pool]
     (a Workspace field) is a scratch handle:
     projecting it and passing it along within the run is the normal
     plumbing idiom, so pools are only flagged when they reach a store,
     a data structure, or a module-level binding. *)
  let borrow_origin e =
    match e.exp_desc with
    | Texp_apply (f, _) -> (
        match resolve f with
        | Some ("Ncg_graph__Bfs", (("dist_array" | "visit_order") as n), spelled)
          ->
            Some (`View, Printf.sprintf "the view %s (origin Bfs.%s)" spelled n)
        | Some ("Ncg__Ball_view", "borrow", spelled) ->
            Some (`View, Printf.sprintf "the view %s (origin Ball_view.borrow)" spelled)
        | Some ("Ncg_graph__Graph", "borrow", spelled) ->
            Some (`View, Printf.sprintf "the graph %s (origin Graph.borrow)" spelled)
        | _ -> None)
    | Texp_field (_, _, lbl) -> (
        match uid_comp_unit lbl.Types.lbl_uid with
        | Some "Ncg__Workspace" ->
            Some
              (`Pool, Printf.sprintf "the workspace pool .%s" lbl.Types.lbl_name)
        | _ -> None)
    | Texp_ident (Path.Pident id, _, _) when is_tainted id ->
        Some (`View, Printf.sprintf "the borrowed view %s" (Ident.name id))
    | _ -> None
  in
  let closure_capture e =
    match e.exp_desc with
    | Texp_function _ -> (
        match
          List.find_opt (fun (id, _) -> is_tainted id) (free_ident_uses e)
        with
        | Some (id, _) ->
            Some
              (Printf.sprintf "a closure capturing the borrowed view %s"
                 (Ident.name id))
        | None -> None)
    | _ -> None
  in
  (* Any borrow (or taint-capturing closure) reaching a store/pack. *)
  let leak_reason e =
    match borrow_origin e with
    | Some (_, what) -> Some what
    | None -> closure_capture e
  in
  (* Only views (and taint-capturing closures) are unsafe to return. *)
  let view_leak_reason e =
    match borrow_origin e with
    | Some (`View, what) -> Some what
    | Some (`Pool, _) -> None
    | None -> closure_capture e
  in
  let s1 loc what how =
    add_viol loc Rules.S1
      (Printf.sprintf
         "%s %s; the scratch buffer behind it is overwritten by the next run"
         what how)
  in
  let s1_on = not ctx.Lint.scratch_lender in
  (* The result positions of an expression: where a function body's
     value comes from. A borrow (or taint) there escapes upward. *)
  let rec result_leaks e =
    match view_leak_reason e with
    | Some what -> Some (e.exp_loc, what)
    | None -> (
        match e.exp_desc with
        | Texp_let (_, _, body) -> result_leaks body
        | Texp_sequence (_, body) -> result_leaks body
        | Texp_ifthenelse (_, t, f) -> (
            match result_leaks t with
            | Some r -> Some r
            | None -> Option.bind f result_leaks)
        | Texp_match (_, cases, _) ->
            List.find_map (fun c -> result_leaks c.c_rhs) cases
        | Texp_try (body, cases) -> (
            match result_leaks body with
            | Some r -> Some r
            | None -> List.find_map (fun c -> result_leaks c.c_rhs) cases)
        | _ -> None)
  in
  let check_leak how e =
    if s1_on then
      match leak_reason e with
      | Some what -> s1 e.exp_loc what how
      | None -> ()
  in
  let check_resolved loc (cu, name, spelled) =
    let d = origin_display ~cu ~name ~spelled in
    match (cu, name) with
    | "Stdlib__Random", _ when not ctx.Lint.prng_exempt ->
        add_viol loc Rules.D1 (d ^ ": stdlib randomness (process-global state)")
    | ("Unix" | "UnixLabels"), ("gettimeofday" | "time") | "Stdlib__Sys", "time"
      ->
        if not ctx.Lint.clock_exempt then
          add_viol loc Rules.D2
            (d ^ ": wall-clock read outside the Clock module")
    | "Stdlib", "string_of_float" | "Stdlib__Float", "to_string" ->
        add_viol loc Rules.D4
          (d
         ^ ": lossy float formatting (12 significant digits, no NaN round-trip)")
    | "Stdlib", ("open_out" | "open_out_bin" | "open_out_gen")
    | ( "Stdlib__Out_channel",
        ( "open_text" | "open_bin" | "open_gen" | "with_open_text"
        | "with_open_bin" | "with_open_gen" ) ) ->
        add_viol loc Rules.A1
          (d ^ ": bare output channel (a crash here leaves a torn artifact)")
    | ("Stdlib__Hashtbl" | "Stdlib__MoreLabels"), ("iter" | "fold") ->
        add_viol loc Rules.D3 (d ^ ": iteration order is hash-bucket order")
    | _ -> ()
  in
  (* The typechecker elaborates a literal format string into a
     [CamlinternalFormatBasics.Format] construct; the original spelling
     rides along as its final argument. *)
  let format_literal e =
    match e.exp_desc with
    | Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
    | Texp_construct (_, { Types.cstr_name = "Format"; _ }, args) -> (
        match List.rev args with
        | { exp_desc = Texp_constant (Asttypes.Const_string (s, _, _)); _ }
          :: _ ->
            Some s
        | _ -> None)
    | _ -> None
  in
  let check_apply f args =
    match resolve f with
    | None -> ()
    | Some ((cu, name, spelled) as r) ->
        ignore r;
        (* D4: bare %f in a printf-family format string. *)
        if printf_unit cu then
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some a -> (
                  match format_literal a with
                  | Some s when Lint.has_bare_percent_f s ->
                      add_viol a.exp_loc Rules.D4
                        "format string uses a bare %f conversion (6-digit \
                         truncation)"
                  | _ -> ())
              | None -> ())
            args;
        (* S1: a borrowed view flowing into a mutable store. *)
        if s1_on && s1_sink cu name then
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some a ->
                  check_leak
                    (Printf.sprintf "flows into the mutable store %s" spelled)
                    a
              | None -> ())
            args;
        (* P2: closure literals handed to a fan-out point must not
           capture plain mutable state from the enclosing scope. *)
        if fanout_point cu name && not ctx.Lint.parallel_impl then
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some ({ exp_desc = Texp_function _; _ } as lam) ->
                  let seen = ref [] in
                  List.iter
                    (fun (id, (use : expression)) ->
                      if not (List.exists (Ident.same id) !seen) then begin
                        seen := id :: !seen;
                        let verdict =
                          match local_shape id with
                          | Some what ->
                              if type_mutability use.exp_type = `Safe then
                                `Neutral
                              else `Mut ("a " ^ what)
                          | None -> type_mutability use.exp_type
                        in
                        match verdict with
                        | `Mut what ->
                            add_viol lam.exp_loc Rules.P2
                              (Printf.sprintf
                                 "closure passed to %s captures %s, %s — \
                                  plain mutable state crossing a domain \
                                  boundary"
                                 spelled (Ident.name id) what)
                        | `Safe | `Neutral -> ()
                      end)
                    (free_ident_uses lam)
              | _ -> ())
            args
  in
  let default = Tast_iterator.default_iterator in
  let iter =
    {
      default with
      Tast_iterator.expr =
        (fun it e ->
          handle_attrs e.exp_loc e.exp_attributes;
          (match e.exp_desc with
          | Texp_ident _ -> (
              match resolve e with
              | Some r -> check_resolved e.exp_loc r
              | None -> ())
          | Texp_constant (Asttypes.Const_string (s, _, _))
            when (not ctx.Lint.schema_registry)
                 && Ncg_obs.Schema.is_schema_shaped s ->
              if List.mem s ctx.Lint.known_schemas then
                add_viol e.exp_loc Rules.R1
                  (Printf.sprintf
                     "schema literal %S bypasses the registry (reference the \
                      Ncg_obs.Schema value instead)"
                     s)
              else
                add_viol e.exp_loc Rules.R1
                  (Printf.sprintf
                     "schema literal %S is not a registered schema tag" s)
          | Texp_apply (f, args) -> check_apply f args
          | Texp_tuple es -> List.iter (check_leak "is packed into a tuple") es
          (* Passing [~lbl:x] to an optional parameter elaborates to an
             invisible [Some x] sharing [x]'s location — that is argument
             passing, not packing, so it is exempt. *)
          | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ x ])
            when x.exp_loc = e.exp_loc ->
              ()
          | Texp_construct (_, _, es) ->
              List.iter (check_leak "is packed into a constructor") es
          | Texp_variant (_, Some x) -> check_leak "is packed into a variant" x
          | Texp_record { fields; _ } ->
              Array.iter
                (fun (_, def) ->
                  match def with
                  | Overridden (_, x) ->
                      check_leak "is stored in a record field" x
                  | Kept _ -> ())
                fields
          | Texp_array es ->
              List.iter (check_leak "is stored in an array literal") es
          | Texp_setfield (_, _, _, rhs) ->
              check_leak "is stored into a mutable field" rhs
          | Texp_function { cases; _ } ->
              if s1_on then
                List.iter
                  (fun c ->
                    match result_leaks c.c_rhs with
                    | Some (loc, what) ->
                        s1 loc what "is returned from a function"
                    | None -> ())
                  cases
          | _ -> ());
          default.Tast_iterator.expr it e);
      value_binding =
        (fun it vb ->
          handle_attrs vb.vb_loc vb.vb_attributes;
          (match pat_bound_idents vb.vb_pat with
          | [ id ] -> (
              match borrow_origin vb.vb_expr with
              | Some (`View, _) when s1_on -> tainted := id :: !tainted
              | _ -> ())
          | _ -> ());
          default.Tast_iterator.value_binding it vb;
          (* Shape registration is post-order, so an initializer block's
             inner bindings are known by the time its own binding is
             judged. *)
          match pat_bound_idents vb.vb_pat with
          | [ id ] -> (
              match typed_mutable_shape ~local:local_shape vb.vb_expr with
              | Some what -> local_shapes := (id, what) :: !local_shapes
              | None -> ())
          | _ -> ());
      open_declaration =
        (fun it od ->
          (match od.open_expr.mod_desc with
          | Tmod_ident (p, _) when not ctx.Lint.prng_exempt -> (
              match path_parts p with
              | ("Stdlib__Random" | "Random") :: _
              | "Stdlib" :: "Random" :: _ ->
                  add_viol od.open_loc Rules.D1
                    ("open " ^ Path.name p
                   ^ ": stdlib randomness (process-global state)")
              | _ -> ())
          | _ -> ());
          default.Tast_iterator.open_declaration it od);
      structure_item =
        (fun it item ->
          (match item.str_desc with
          | Tstr_attribute attr ->
              List.iter
                (Lint.scan_attr ~add_viol ~add_supp ~from_cnum:0
                   ~to_cnum:max_int)
                [ attr ]
          | _ -> ());
          default.Tast_iterator.structure_item it item);
    }
  in
  iter.Tast_iterator.structure iter str;
  (* P1 and module-level S1 run on a dedicated top-level scan: only
     structure-level bindings are global state; a ref inside a function
     body is not. *)
  let scan_vb vb =
    (if ctx.Lint.global_state then
       match typed_mutable_shape ~local:local_shape vb.vb_expr with
       | Some what ->
           add_viol vb.vb_loc Rules.P1
             (Printf.sprintf
                "top-level %s is plain shared mutable state (not Atomic, \
                 Domain.DLS or Mutex)"
                what)
       | None -> ());
    if s1_on then
      match leak_reason vb.vb_expr with
      | Some what ->
          s1 vb.vb_loc what "is bound at module level (outlives every run)"
      | None -> ()
  in
  let rec scan_items items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter scan_vb vbs
        | Tstr_module mb -> scan_mod mb
        | Tstr_recmodule mbs -> List.iter scan_mod mbs
        | Tstr_include { incl_mod = { mod_desc = Tmod_structure s; _ }; _ } ->
            scan_items s.str_items
        | _ -> ())
      items
  and scan_mod mb =
    match mb.mb_expr.mod_desc with
    | Tmod_structure s -> scan_items s.str_items
    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
        scan_items s.str_items
    | _ -> ()
  in
  scan_items str.str_items;
  Lint.finish ~filename (List.rev !supps) !viols

(* --- cmt discovery and checking -------------------------------------------- *)

let error_report path msg =
  {
    Lint.path;
    violations = [];
    suppressions = [];
    parse_error = Some msg;
  }

(* Map root-relative source path -> .cmt path by reading each cmt's
   recorded sourcefile — no name-mangling heuristics. Entries are
   visited in sorted order so duplicate sources resolve
   deterministically; only the header fields are kept, so memory stays
   bounded at one cmt at a time. *)
let index_cmts ~cmt_root =
  let tbl = Hashtbl.create 256 in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun ent ->
            let p = Filename.concat dir ent in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix ent ".cmt" then
              match Cmt_format.read_cmt p with
              | exception _ -> ()
              | infos -> (
                  match infos.Cmt_format.cmt_sourcefile with
                  | Some src ->
                      let src =
                        if String.length src > 2 && String.sub src 0 2 = "./"
                        then String.sub src 2 (String.length src - 2)
                        else src
                      in
                      if not (Hashtbl.mem tbl src) then Hashtbl.add tbl src p
                  | None -> ()))
          entries
  in
  walk cmt_root;
  tbl

let check_cmt ~ctx ~display ~source_path cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception e ->
      error_report display
        (Printf.sprintf "cannot read %s: %s" cmt_path (Printexc.to_string e))
  | infos -> (
      (* Staleness is judged by content, not mtime: dune's shared cache
         restores artifacts as hardlinks whose timestamps predate the
         source copy, so mtimes prove nothing. The cmt records a digest
         of the source it was compiled from. *)
      let stale =
        match infos.Cmt_format.cmt_source_digest with
        | Some d -> (
            match Digest.file source_path with
            | exception _ -> false
            | d' -> d <> d')
        | None -> false
      in
      if stale then
        error_report display
          "stale .cmt: the source has changed since the build (rerun `dune \
           build @check`)"
      else
        match infos.Cmt_format.cmt_annots with
        | Cmt_format.Implementation str -> run_checks ~ctx ~filename:display str
        | _ -> error_report display "cmt carries no implementation typedtree")

let check_tree ~ctx_of ~root ~cmt_root files =
  let idx = index_cmts ~cmt_root in
  List.map
    (fun rel ->
      match Hashtbl.find_opt idx rel with
      | Some cmt ->
          check_cmt ~ctx:(ctx_of rel) ~display:rel
            ~source_path:(Filename.concat root rel) cmt
      | None ->
          error_report rel "no .cmt found (run `dune build @check` first)")
    files

(* --- In-process typing (fixture tests) ------------------------------------- *)

let check_source_typed ~ctx ~filename ?(include_dirs = []) source =
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf filename;
    let past = Parse.implementation lexbuf in
    ignore (Warnings.parse_options false "-a");
    Clflags.include_dirs := include_dirs;
    Compmisc.init_path ~auto_include:Load_path.no_auto_include ();
    Env.reset_cache ();
    let env = Compmisc.initial_env () in
    let tstr, _, _, _, _ = Typemod.type_structure env past in
    tstr
  with
  | tstr -> run_checks ~ctx ~filename tstr
  | exception e ->
      let msg =
        match Location.error_of_exn e with
        | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
        | _ -> Printexc.to_string e
      in
      error_report filename msg
