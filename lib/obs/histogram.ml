(* Log-bucketed latency histograms, HDR-style: bucket boundaries grow by
   sqrt(2) (two buckets per octave) from 100ns to 100s, so any recorded
   duration is located to within ~41% relative error using 62 buckets of
   constant memory. Recording discipline mirrors Metrics: domain-local
   collectors, no-op (and no clock read) when none is installed. *)

let lowest_ns = 100L
let octaves = 30 (* 100ns * 2^30 ~ 107s >= 100s *)
let boundary_count = (2 * octaves) + 1
let bucket_count = boundary_count + 1 (* + underflow below 100ns, overflow at top *)

(* boundaries.(i) = round(100 * 2^(i/2)) ns. Bucket 0 is [0, 100ns);
   bucket i (1 <= i <= boundary_count - 1) is [boundaries.(i-1),
   boundaries.(i)); the last bucket is [boundaries.(boundary_count-1), inf). *)
let boundaries =
  Array.init boundary_count (fun i ->
      Int64.of_float
        (Float.round (Int64.to_float lowest_ns *. (2.0 ** (float_of_int i /. 2.0)))))
[@@lint.domain_local "precomputed constant lookup table, never written after init"]

let bucket_of_ns ns =
  if ns < lowest_ns then 0
  else begin
    (* Binary search: smallest i with ns < boundaries.(i); bucket is i. *)
    let lo = ref 0 and hi = ref boundary_count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ns < boundaries.(mid) then hi := mid else lo := mid + 1
    done;
    !lo (* = boundary_count when ns >= the top boundary: the overflow bucket *)
  end

let bucket_upper_ns b =
  if b >= boundary_count then Int64.max_int else boundaries.(b)

(* --- Registry ------------------------------------------------------------- *)

type histogram = int

let registry = Registry.create "Histogram.register" ~capacity:32
let register name = Registry.register registry name
let name h = Registry.name registry h

let best_response = register "best_response.latency"
let sum_best_response = register "sum_best_response.latency"
let set_cover = register "set_cover.solve.latency"
let dynamics_round = register "dynamics.round.latency"
let sweep_cell = register "experiment.sweep_cell.latency"

(* --- Recording ------------------------------------------------------------ *)

type collector = {
  counts : int array array; (* per histogram, per bucket *)
  totals : int array;
  sums : int64 array;
  maxs : int64 array;
}

let fresh_collector () =
  let capacity = Registry.capacity registry in
  {
    counts = Array.init capacity (fun _ -> Array.make bucket_count 0);
    totals = Array.make capacity 0;
    sums = Array.make capacity 0L;
    maxs = Array.make capacity 0L;
  }

let current : collector option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let recording () = Domain.DLS.get current <> None

let record_ns h ns =
  match Domain.DLS.get current with
  | None -> ()
  | Some col ->
      let ns = if ns < 0L then 0L else ns in
      let b = bucket_of_ns ns in
      col.counts.(h).(b) <- col.counts.(h).(b) + 1;
      col.totals.(h) <- col.totals.(h) + 1;
      col.sums.(h) <- Int64.add col.sums.(h) ns;
      if ns > col.maxs.(h) then col.maxs.(h) <- ns

let time h f =
  if Domain.DLS.get current = None then f ()
  else begin
    let started = Clock.now_ns () in
    let result = f () in
    record_ns h (Clock.elapsed_ns ~since:started);
    result
  end

(* --- Snapshots ------------------------------------------------------------ *)

type hist = { counts : int array; total : int; sum_ns : int64; max_ns : int64 }
type snapshot = (string * hist) list

let empty_hist =
  { counts = Array.make bucket_count 0; total = 0; sum_ns = 0L; max_ns = 0L }

let snapshot_of (col : collector) =
  List.init (Registry.count registry) (fun h ->
      ( name h,
        {
          counts = Array.copy col.counts.(h);
          total = col.totals.(h);
          sum_ns = col.sums.(h);
          max_ns = col.maxs.(h);
        } ))

let fold_into (col : collector) (snap : snapshot) =
  List.iter
    (fun (name, (hist : hist)) ->
      match Registry.find registry name with
      | None -> ()
      | Some h ->
          Array.iteri
            (fun b v -> col.counts.(h).(b) <- col.counts.(h).(b) + v)
            hist.counts;
          col.totals.(h) <- col.totals.(h) + hist.total;
          col.sums.(h) <- Int64.add col.sums.(h) hist.sum_ns;
          if hist.max_ns > col.maxs.(h) then col.maxs.(h) <- hist.max_ns)
    snap

let collect f =
  let col = fresh_collector () in
  let prev = Domain.DLS.get current in
  Domain.DLS.set current (Some col);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current prev;
      match prev with
      | Some outer -> fold_into outer (snapshot_of col)
      | None -> ())
    (fun () ->
      let result = f () in
      (result, snapshot_of col))

let merge_hist (a : hist) (b : hist) =
  {
    counts = Array.init bucket_count (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
    sum_ns = Int64.add a.sum_ns b.sum_ns;
    max_ns = Int64.max a.max_ns b.max_ns;
  }

let merge (a : snapshot) (b : snapshot) = Registry.merge registry ~combine:merge_hist a b

let total snaps = List.fold_left merge [] snaps

(* --- Queries -------------------------------------------------------------- *)

let count (h : hist) = h.total
let sum_ns (h : hist) = h.sum_ns
let max_ns (h : hist) = h.max_ns

let mean_ns (h : hist) =
  if h.total = 0 then nan else Int64.to_float h.sum_ns /. float_of_int h.total

(* The smallest bucket upper bound such that at least [ceil (q * total)]
   samples fall at or below it — a conservative (over-)estimate, exact to
   within one sqrt(2) bucket — clamped to the observed max, which no
   sample exceeds (the overflow bucket has no upper bound of its own). *)
let percentile_ns (h : hist) q =
  if h.total = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.total))) in
    let b = ref 0 and seen = ref 0 in
    while !seen < rank && !b < bucket_count do
      seen := !seen + h.counts.(!b);
      if !seen < rank then incr b
    done;
    if !b >= boundary_count then Int64.to_float h.max_ns
    else Int64.to_float (Int64.min (bucket_upper_ns !b) h.max_ns)
  end

let p50_ns h = percentile_ns h 0.5
let p90_ns h = percentile_ns h 0.9
let p99_ns h = percentile_ns h 0.99

let pp_ns ns =
  if Float.is_nan ns then "-"
  else if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

(* --- Export --------------------------------------------------------------- *)

let hist_to_json (h : hist) =
  let buckets = ref [] in
  for b = bucket_count - 1 downto 0 do
    if h.counts.(b) > 0 then
      buckets :=
        Json.Obj
          [
            ( "le_ns",
              if b >= boundary_count then Json.Null
              else Json.Int (Int64.to_int (bucket_upper_ns b)) );
            ("count", Json.Int h.counts.(b));
          ]
        :: !buckets
  done;
  Json.Obj
    [
      ("count", Json.Int h.total);
      ("sum_ns", Json.Int (Int64.to_int h.sum_ns));
      ("max_ns", Json.Int (Int64.to_int h.max_ns));
      ("p50_ns", Json.Float (p50_ns h));
      ("p90_ns", Json.Float (p90_ns h));
      ("p99_ns", Json.Float (p99_ns h));
      ("buckets", Json.List !buckets);
    ]

let nonzero (snap : snapshot) = List.filter (fun (_, h) -> h.total > 0) snap

let to_json snap =
  Json.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) (nonzero snap))

let to_markdown snap =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "| histogram | count | p50 | p90 | p99 | max |\n|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun (k, h) ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %d | %s | %s | %s | %s |\n" k h.total
           (pp_ns (p50_ns h)) (pp_ns (p90_ns h)) (pp_ns (p99_ns h))
           (pp_ns (Int64.to_float h.max_ns))))
    (nonzero snap);
  Buffer.contents buf

(* Sample counts only — the deterministic projection of a snapshot (bucket
   placement depends on wall time; how many samples were recorded does not). *)
let counts_only (snap : snapshot) = List.map (fun (k, h) -> (k, h.total)) snap

(* --- Exact (lossless) codec ------------------------------------------------ *)

(* Unlike to_json (a human-oriented export that drops empty histograms,
   zero buckets and exact bucket indices), the exact codec preserves a
   snapshot bit-for-bit — every histogram, the full bucket array — so
   cached sweep cells restore to exactly what the original run recorded. *)

let hist_to_json_exact (h : hist) =
  Json.Obj
    [
      ( "counts",
        Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)) );
      ("total", Json.Int h.total);
      ("sum_ns", Json.Int (Int64.to_int h.sum_ns));
      ("max_ns", Json.Int (Int64.to_int h.max_ns));
    ]

let to_json_exact (snap : snapshot) =
  Json.Obj (List.map (fun (k, h) -> (k, hist_to_json_exact h)) snap)

let buckets_of_json j =
  let counts = Array.of_list (Json.list Json.int j) in
  if Array.length counts <> bucket_count then
    Json.fail "expected %d buckets, got %d" bucket_count (Array.length counts);
  counts

let hist_of_json_exact j =
  let int64 name = Int64.of_int (Json.field name Json.int j) in
  {
    counts = Json.field "counts" buckets_of_json j;
    total = Json.field "total" Json.int j;
    sum_ns = int64 "sum_ns";
    max_ns = int64 "max_ns";
  }

let of_json_exact =
  Json.decode ~what:"Histogram.of_json_exact" (Json.assoc hist_of_json_exact)
