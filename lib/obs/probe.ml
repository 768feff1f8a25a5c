type probe = int

let default_series_capacity = 64
let registry = Registry.create "Probe.register" ~capacity:32
let register name = Registry.register registry name
let name p = Registry.name registry p
let names () = Registry.names registry
let find n = Registry.find registry n

let social_cost = register "dynamics.social_cost"
let awake_players = register "dynamics.awake_players"
let br_gap_max = register "dynamics.br_gap_max"
let br_gap_total = register "dynamics.br_gap_total"
let move_edit_distance = register "dynamics.move_edit_distance"
let move_locality_radius = register "dynamics.move_locality_radius"
let set_cover_nodes = register "solver.set_cover_nodes"
let bb_cutoffs = register "solver.bb_cutoffs"

(* Series are materialized lazily, so probes that never fire in a given
   configuration (e.g. the Sum engine's under Max) cost nothing. *)
type collector = { capacity : int; series : Timeseries.t option array }

let current : collector option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let recording () = Domain.DLS.get current <> None

let series_of col p =
  match col.series.(p) with
  | Some s -> s
  | None ->
      let s = Timeseries.create ~capacity:col.capacity () in
      col.series.(p) <- Some s;
      s

let sample p ~x y =
  match Domain.DLS.get current with
  | None -> ()
  | Some col -> Timeseries.push (series_of col p) ~x y

let sample_lazy p ~x f =
  match Domain.DLS.get current with
  | None -> ()
  | Some col -> Timeseries.push_lazy (series_of col p) ~x f

type snapshot = (string * Timeseries.t) list

let snapshot_of col =
  List.init (Registry.count registry) (fun i ->
      ( name i,
        match col.series.(i) with
        | Some s -> s
        | None -> Timeseries.create ~capacity:col.capacity () ))

let empty_snapshot ?(capacity = default_series_capacity) () =
  List.map (fun n -> (n, Timeseries.create ~capacity ())) (names ())

let collect ?(capacity = default_series_capacity) f =
  let col = { capacity; series = Array.make (Registry.capacity registry) None } in
  let prev = Domain.DLS.get current in
  Domain.DLS.set current (Some col);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current prev)
    (fun () ->
      let result = f () in
      (result, snapshot_of col))

let equal_snapshot a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, sa) (nb, sb) -> na = nb && Timeseries.equal sa sb)
       a b

let schema = Schema.obs_probes

let to_json snap =
  let capacity =
    match snap with
    | (_, s) :: _ -> Timeseries.capacity s
    | [] -> default_series_capacity
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("capacity", Json.Int capacity);
      ( "series",
        Json.Obj
          (List.filter_map
             (fun (n, s) ->
               if Timeseries.pushed s = 0 then None
               else Some (n, Timeseries.to_json s))
             snap) );
    ]

let of_json =
  Json.decode ~what:"Probe.of_json" (fun j ->
      Json.schema schema j;
      let capacity = Json.field "capacity" Json.int j in
      (* Checked here, not left to Timeseries.create, which raises. *)
      if capacity < 2 then Json.fail "capacity must be >= 2, got %d" capacity;
      let series = Json.field "series" (Json.assoc (Json.nested Timeseries.of_json)) j in
      Registry.expand registry ~default:(fun () -> Timeseries.create ~capacity ()) series)
