type counter = int

let registry = Registry.create "Metrics.register" ~capacity:128
let register name = Registry.register registry name
let name c = Registry.name registry c

let bfs_calls = register "bfs.calls"
let view_extracts = register "view.extracts"
let set_cover_solves = register "set_cover.solves"
let set_cover_nodes = register "set_cover.bb_nodes"
let set_cover_cutoffs = register "set_cover.bb_cutoffs"
let set_cover_greedy = register "set_cover.greedy_runs"
let set_cover_root_decided = register "set_cover.root_decided"
let set_cover_budget_exhausted = register "set_cover.budget_exhausted"
let best_response_calls = register "best_response.calls"
let best_response_radii = register "best_response.radii_tried"
let sum_best_response_calls = register "sum_best_response.calls"
let sum_bb_nodes = register "sum_best_response.bb_nodes"
let sum_bb_cutoffs = register "sum_best_response.bb_cutoffs"
let dynamics_rounds = register "dynamics.rounds"
let dynamics_moves = register "dynamics.moves"

(* The collector is domain-local: no atomics in the hot path, and counts
   recorded by a sweep cell stay with that cell wherever it runs. *)
type collector = { counts : int array }

let current : collector option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let add c n =
  match Domain.DLS.get current with
  | None -> ()
  | Some col -> col.counts.(c) <- col.counts.(c) + n

let incr c = add c 1
let recording () = Domain.DLS.get current <> None

let read c =
  match Domain.DLS.get current with
  | None -> 0
  | Some col -> col.counts.(c)

type snapshot = (string * int) list

let snapshot_of col =
  List.init (Registry.count registry) (fun i -> (name i, col.counts.(i)))

let collect f =
  let col = { counts = Array.make (Registry.capacity registry) 0 } in
  let prev = Domain.DLS.get current in
  Domain.DLS.set current (Some col);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current prev;
      match prev with
      | Some outer ->
          Array.iteri
            (fun i v -> outer.counts.(i) <- outer.counts.(i) + v)
            col.counts
      | None -> ())
    (fun () ->
      let result = f () in
      (result, snapshot_of col))

let merge a b = Registry.merge registry ~combine:( + ) a b

let total snaps = List.fold_left merge [] snaps

let nonzero snap = List.filter (fun (_, v) -> v <> 0) snap

let to_json snap =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (nonzero snap))

(* Inverse of to_json within one binary: decode (encode snap) = snap for
   any snapshot produced by [collect]. *)
let of_json =
  Json.decode ~what:"Metrics.of_json" (fun j ->
      Registry.expand registry ~default:(fun () -> 0) (Json.assoc Json.int j))

let to_markdown snap =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "| counter | count |\n|---|---:|\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "| %s | %d |\n" k v))
    (nonzero snap);
  Buffer.contents buf
