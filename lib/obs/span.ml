type t = {
  span_name : string;
  started_ns : int64;
  elapsed_ns : int64;
  children : t list;
}

type frame = {
  frame_name : string;
  started : int64;
  mutable completed : t list;  (* children, most recent first *)
}

(* Innermost frame first; empty means tracing is off in this domain. *)
let stack : frame list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let active () = Domain.DLS.get stack <> []

let close frame =
  {
    span_name = frame.frame_name;
    started_ns = frame.started;
    elapsed_ns = Clock.elapsed_ns ~since:frame.started;
    children = List.rev frame.completed;
  }

let with_frame name f attach =
  let frame = { frame_name = name; started = Clock.now_ns (); completed = [] } in
  let outer = Domain.DLS.get stack in
  Domain.DLS.set stack (frame :: outer);
  let finished = ref None in
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set stack outer;
      (* On exceptions the partial span is dropped rather than recorded. *)
      match !finished with
      | Some span -> attach outer span
      | None -> ())
    (fun () ->
      let result = f () in
      finished := Some (close frame);
      result)

let trace name f =
  (* Root frames ignore any enclosing trace: we stash the completed tree
     through a cell captured per call, not through the outer stack. *)
  let result_span = ref None in
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack [];
  let result =
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set stack saved)
      (fun () ->
        with_frame name f (fun _outer span -> result_span := Some span))
  in
  match !result_span with
  | Some span -> (result, span)
  | None -> assert false (* with_frame always attaches on success *)

let with_span name f =
  match Domain.DLS.get stack with
  | [] -> f ()
  | _ :: _ ->
      with_frame name f (fun outer span ->
          match outer with
          | parent :: _ -> parent.completed <- span :: parent.completed
          | [] -> ())

let rec count span = 1 + List.fold_left (fun acc c -> acc + count c) 0 span.children

let rec find span wanted =
  if span.span_name = wanted then Some span
  else
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find c wanted)
      None span.children

let rec to_json span =
  let base =
    [
      ("name", Json.String span.span_name);
      ("elapsed_ns", Json.Int (Int64.to_int span.elapsed_ns));
    ]
  in
  match span.children with
  | [] -> Json.Obj base
  | children -> Json.Obj (base @ [ ("children", Json.List (List.map to_json children)) ])

(* Lossless variant of to_json: also carries started_ns, so a cached
   cell's span tree is the one it was stored with, and round-trips
   through of_json_exact. *)
let rec to_json_exact span =
  let base =
    [
      ("name", Json.String span.span_name);
      ("started_ns", Json.Int (Int64.to_int span.started_ns));
      ("elapsed_ns", Json.Int (Int64.to_int span.elapsed_ns));
    ]
  in
  match span.children with
  | [] -> Json.Obj base
  | children ->
      Json.Obj (base @ [ ("children", Json.List (List.map to_json_exact children)) ])

let rec span_of_json_exact j =
  let int64 name = Int64.of_int (Json.field name Json.int j) in
  {
    span_name = Json.field "name" Json.string j;
    started_ns = int64 "started_ns";
    elapsed_ns = int64 "elapsed_ns";
    children =
      Option.value ~default:[]
        (Json.field_opt "children" (Json.list span_of_json_exact) j);
  }

let of_json_exact = Json.decode ~what:"Span.of_json_exact" span_of_json_exact

let to_markdown span =
  let buf = Buffer.create 128 in
  let rec go depth span =
    Buffer.add_string buf
      (Printf.sprintf "%s- %s: %.3f ms\n"
         (String.make (2 * depth) ' ')
         span.span_name
         (Int64.to_float span.elapsed_ns /. 1e6));
    List.iter (go (depth + 1)) span.children
  in
  go 0 span;
  Buffer.contents buf
