type t = {
  capacity : int;
  mutable xs : float array;
  mutable ys : float array;
  mutable len : int;
  mutable stride : int;
  mutable pushed : int;
}

(* Invariant: stored sample [i] is the sample pushed at index
   [i * stride]. Decimation keeps the even-indexed stored samples (push
   indices 0, 2*stride, 4*stride, …) and doubles the stride, so the
   invariant is preserved and the retained subsequence stays evenly
   spaced and in push order. The backing arrays are sized by [resize]
   from [capacity] and [len] alone, zero past [len], so equal logical
   states are structurally equal and an unfired series holds no floats. *)

(* Fresh arrays for [len] samples, keeping the stored ones: empty while
   [len] is 0, else doubling from 8 slots up to [capacity]. *)
let resize t len =
  let rec grow n = if n >= len then n else grow (2 * n) in
  let n = if len = 0 then 0 else min t.capacity (grow 8) in
  let copy a = Array.init n (fun i -> if i < t.len then a.(i) else 0.) in
  t.xs <- copy t.xs;
  t.ys <- copy t.ys

let create ?(capacity = 64) () =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity must be >= 2";
  { capacity; xs = [||]; ys = [||]; len = 0; stride = 1; pushed = 0 }

(* Stores one sample, growing the arrays when they are full. *)
let append t x y =
  if t.len = Array.length t.xs then resize t (t.len + 1);
  t.xs.(t.len) <- x;
  t.ys.(t.len) <- y;
  t.len <- t.len + 1

let capacity t = t.capacity
let length t = t.len
let is_empty t = t.len = 0
let stride t = t.stride
let pushed t = t.pushed

let wants t =
  t.pushed mod t.stride = 0
  && (t.len < t.capacity || t.pushed mod (2 * t.stride) = 0)

let decimate t =
  let m = (t.len + 1) / 2 in
  for i = 0 to m - 1 do
    t.xs.(i) <- t.xs.(2 * i);
    t.ys.(i) <- t.ys.(2 * i)
  done;
  t.len <- m;
  resize t m;
  t.stride <- 2 * t.stride

let push_lazy t ~x f =
  (if t.pushed mod t.stride = 0 then begin
     if t.len = t.capacity then decimate t;
     (* After a decimation the current push index may no longer sit on
        the doubled stride (odd capacities); re-check before storing. *)
     if t.pushed mod t.stride = 0 then append t x (f ())
   end);
  t.pushed <- t.pushed + 1

let push t ~x y = push_lazy t ~x (fun () -> y)

let to_list t = List.init t.len (fun i -> (t.xs.(i), t.ys.(i)))

let last t =
  if t.len = 0 then None else Some (t.xs.(t.len - 1), t.ys.(t.len - 1))

let feq a b = Float.compare a b = 0

let equal a b =
  a.capacity = b.capacity && a.len = b.len && a.stride = b.stride
  && a.pushed = b.pushed
  &&
  let ok = ref true in
  for i = 0 to a.len - 1 do
    if not (feq a.xs.(i) b.xs.(i) && feq a.ys.(i) b.ys.(i)) then ok := false
  done;
  !ok

let schema = Schema.obs_timeseries

(* Json.float_repr flattens non-finite floats to null; a series must
   round-trip them exactly (NaN marks e.g. a disconnected network's
   social cost), so they get explicit string spellings. *)
let sample_to_json f =
  if Float.is_nan f then Json.String "nan"
  else if f = Float.infinity then Json.String "inf"
  else if f = Float.neg_infinity then Json.String "-inf"
  else Json.Float f

let sample_of_json = function
  | Json.String "nan" -> Float.nan
  | Json.String "inf" -> Float.infinity
  | Json.String "-inf" -> Float.neg_infinity
  | j -> Json.number j

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("capacity", Json.Int t.capacity);
      ("stride", Json.Int t.stride);
      ("pushed", Json.Int t.pushed);
      ("xs", Json.List (List.init t.len (fun i -> sample_to_json t.xs.(i))));
      ("ys", Json.List (List.init t.len (fun i -> sample_to_json t.ys.(i))));
    ]

let of_json =
  Json.decode ~what:"Timeseries.of_json" (fun j ->
      let int name = Json.field name Json.int j in
      Json.schema schema j;
      (* Checked here, not left to [create], which raises. *)
      let cap = int "capacity" in
      if cap < 2 then Json.fail "capacity must be >= 2, got %d" cap;
      let t = create ~capacity:cap () in
      t.stride <- int "stride";
      t.pushed <- int "pushed";
      if t.stride < 1 then Json.fail "stride must be >= 1";
      let xs = Json.field "xs" (Json.list sample_of_json) j in
      let ys = Json.field "ys" (Json.list sample_of_json) j in
      if List.length xs <> List.length ys then
        Json.fail "xs and ys must have the same length";
      if List.length xs > cap then Json.fail "more samples than capacity";
      List.iter2 (append t) xs ys;
      t)
