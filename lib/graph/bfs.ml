let unreachable = -1

(* Reusable per-search buffers: [dist] doubles as the visited marker and
   [queue] is a flat FIFO whose first [visited] entries after a run list the
   reached vertices in BFS order. Growing on demand means one scratch can
   serve graphs of any size; threading one scratch through a dynamics run
   is what keeps repeated best-response calls off the minor heap. *)
type scratch = { mutable dist : int array; mutable queue : int array }

let create_scratch ?(capacity = 0) () =
  { dist = Array.make capacity unreachable; queue = Array.make capacity 0 }

let ensure s n =
  if Array.length s.dist < n then begin
    s.dist <- Array.make n unreachable;
    s.queue <- Array.make n 0
  end

let dist_array s = s.dist
let visit_order s = s.queue

let run s g src ~radius =
  Ncg_obs.Metrics.(incr bfs_calls);
  let n = Graph.order g in
  if src < 0 || src >= n then invalid_arg "Bfs.run: source out of range";
  ensure s n;
  let dist = s.dist and queue = s.queue in
  Array.fill dist 0 n unreachable;
  let offsets = Graph.csr_offsets g and packed = Graph.csr_packed g in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < radius then begin
      let stop = offsets.(u + 1) in
      for i = offsets.(u) to stop - 1 do
        let v = packed.(i) in
        if dist.(v) < 0 then begin
          dist.(v) <- du + 1;
          queue.(!tail) <- v;
          incr tail
        end
      done
    end
  done;
  !tail

let distances_within g src ~radius =
  let s = create_scratch ~capacity:(Graph.order g) () in
  ignore (run s g src ~radius);
  s.dist

let distances g src = distances_within g src ~radius:max_int

let ball g src ~radius =
  let s = create_scratch ~capacity:(Graph.order g) () in
  ignore (run s g src ~radius);
  let acc = ref [] in
  for v = Graph.order g - 1 downto 0 do
    if s.dist.(v) <> unreachable then acc := v :: !acc
  done;
  !acc

let eccentricity g src =
  let n = Graph.order g in
  let s = create_scratch ~capacity:n () in
  let visited = run s g src ~radius:max_int in
  (* The last vertex dequeued is a farthest one: BFS order is by distance. *)
  if visited = n then Some s.dist.(s.queue.(visited - 1)) else None

let sum_distances g src =
  let n = Graph.order g in
  let s = create_scratch ~capacity:n () in
  let visited = run s g src ~radius:max_int in
  if visited < n then None
  else begin
    let sum = ref 0 in
    for i = 0 to visited - 1 do
      sum := !sum + s.dist.(s.queue.(i))
    done;
    Some !sum
  end

let is_connected g =
  let n = Graph.order g in
  n = 0
  ||
  let s = create_scratch ~capacity:n () in
  run s g 0 ~radius:max_int = n

let shortest_path g u v =
  let dist = distances g u in
  if dist.(v) = unreachable then None
  else begin
    (* Walk back from [v] following any neighbour one step closer to [u]. *)
    let rec back w acc =
      if w = u then w :: acc
      else begin
        let pred = ref (-1) in
        Graph.iter_neighbors
          (fun x -> if !pred < 0 && dist.(x) = dist.(w) - 1 then pred := x)
          g w;
        back !pred (w :: acc)
      end
    in
    Some (back v [])
  end
