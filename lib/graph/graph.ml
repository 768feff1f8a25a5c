(* Immutable flat-CSR representation: [offsets] has n+1 entries and
   [packed] holds the 2m neighbour entries, each per-vertex segment sorted
   ascending. A canonical form (sorted, deduped segments) makes structural
   equality a plain array comparison and lets subgraph extraction copy
   segments without re-sorting. *)

type t = { n : int; m : int; offsets : int array; packed : int array }

let check_endpoint n v =
  if v < 0 || v >= n then invalid_arg "Graph: vertex out of range"

(* Build from a sorted array of codes [u * n + v], one per directed arc,
   duplicates allowed (they collapse). Shared by [of_edges]/[add_edges]. *)
let of_sorted_codes ~n codes =
  let len = Array.length codes in
  (* Count unique codes. *)
  let total = ref 0 in
  for i = 0 to len - 1 do
    if i = 0 || codes.(i) <> codes.(i - 1) then incr total
  done;
  let total = !total in
  let offsets = Array.make (n + 1) 0 in
  let packed = Array.make total 0 in
  let idx = ref 0 in
  for i = 0 to len - 1 do
    if i = 0 || codes.(i) <> codes.(i - 1) then begin
      let u = codes.(i) / n and v = codes.(i) mod n in
      offsets.(u + 1) <- offsets.(u + 1) + 1;
      packed.(!idx) <- v;
      incr idx
    end
  done;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
  done;
  { n; m = total / 2; offsets; packed }

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative order";
  let len = List.length edges in
  let codes = Array.make (2 * len) 0 in
  let i = ref 0 in
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid_arg "Graph.of_edges: self loop";
      codes.(!i) <- (u * n) + v;
      codes.(!i + 1) <- (v * n) + u;
      i := !i + 2)
    edges;
  Array.sort (fun (a : int) b -> compare a b) codes;
  of_sorted_codes ~n codes

let empty n =
  if n < 0 then invalid_arg "Graph.empty: negative order";
  { n; m = 0; offsets = Array.make (n + 1) 0; packed = [||] }

let order g = g.n
let size g = g.m
let csr_offsets g = g.offsets
let csr_packed g = g.packed

let unsafe_of_csr ~n ~m ~offsets ~packed =
  (* Cheap shape checks only; callers promise sorted, deduped, symmetric
     segments with no self loops and exclusive ownership of the arrays. *)
  if
    n < 0
    || Array.length offsets <> n + 1
    || offsets.(0) <> 0
    || offsets.(n) <> Array.length packed
    || Array.length packed <> 2 * m
  then invalid_arg "Graph.unsafe_of_csr: inconsistent shape";
  { n; m; offsets; packed }

let neighbors g u =
  check_endpoint g.n u;
  let off = g.offsets.(u) in
  Array.sub g.packed off (g.offsets.(u + 1) - off)

let degree g u =
  check_endpoint g.n u;
  g.offsets.(u + 1) - g.offsets.(u)

let iter_neighbors f g u =
  check_endpoint g.n u;
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.packed.(i)
  done

let fold_neighbors f g u init =
  check_endpoint g.n u;
  let acc = ref init in
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    acc := f g.packed.(i) !acc
  done;
  !acc

let mem_edge g u v =
  check_endpoint g.n u;
  check_endpoint g.n v;
  let packed = g.packed in
  let rec bsearch lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if packed.(mid) = v then true
      else if packed.(mid) < v then bsearch (mid + 1) hi
      else bsearch lo mid
    end
  in
  bsearch g.offsets.(u) g.offsets.(u + 1)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = g.packed.(i) in
      if u < v then f u v
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let fold_vertices f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    acc := f u !acc
  done;
  !acc

let add_edges g extra =
  let n = g.n in
  let extra_len = List.length extra in
  let codes = Array.make ((2 * g.m) + (2 * extra_len)) 0 in
  let i = ref 0 in
  for u = 0 to n - 1 do
    for j = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      codes.(!i) <- (u * n) + g.packed.(j);
      incr i
    done
  done;
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid_arg "Graph.add_edges: self loop";
      codes.(!i) <- (u * n) + v;
      codes.(!i + 1) <- (v * n) + u;
      i := !i + 2)
    extra;
  Array.sort (fun (a : int) b -> compare a b) codes;
  of_sorted_codes ~n codes

let remove_vertex_edges g u =
  check_endpoint g.n u;
  let n = g.n in
  let du = degree g u in
  let total = (2 * g.m) - (2 * du) in
  let offsets = Array.make (n + 1) 0 in
  let packed = Array.make total 0 in
  let idx = ref 0 in
  for w = 0 to n - 1 do
    if w <> u then
      for i = g.offsets.(w) to g.offsets.(w + 1) - 1 do
        let v = g.packed.(i) in
        if v <> u then begin
          packed.(!idx) <- v;
          incr idx
        end
      done;
    offsets.(w + 1) <- !idx
  done;
  { n; m = total / 2; offsets; packed }

let check_star n u star =
  check_endpoint n u;
  Array.iteri
    (fun i v ->
      check_endpoint n v;
      if v = u then invalid_arg "Graph.with_star: self loop";
      if i > 0 && star.(i - 1) >= v then
        invalid_arg "Graph.with_star: star not sorted strictly ascending")
    star

(* An int-typed copy loop: [Array.blit] cannot know the elements are
   immediate, and into an array on the major heap it pays the write
   barrier on every element. The range is checked once, up front. *)
let blit_ints (src : int array) src_pos (dst : int array) dst_pos len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > Array.length src
    || dst_pos + len > Array.length dst
  then invalid_arg "Graph: blit out of range";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
  done

(* Write [g] with [u]'s star replaced by [star] (sorted, unique, no [u])
   into [offsets] (n + 1 slots) and [packed] (room for the new arc
   count), which must not alias [g]'s arrays. Only [u] and the rows in
   the symmetric difference of its old and new neighbours change; the
   rows between them are blitted as whole spans, their offsets shifted. *)
let write_star g u star ~offsets ~packed =
  let old_off = g.offsets and old = g.packed in
  let ds = Array.length star in
  let idx = ref 0 and next = ref 0 in
  let copy_until stop =
    let src = old_off.(!next) in
    let len = old_off.(stop) - src in
    blit_ints old src packed !idx len;
    let shift = !idx - src in
    for r = !next + 1 to stop do
      offsets.(r) <- old_off.(r) + shift
    done;
    idx := !idx + len
  in
  let rewrite w =
    copy_until w;
    if w = u then begin
      blit_ints star 0 packed !idx ds;
      idx := !idx + ds
    end
    else begin
      (* w loses u if it had it and gains it otherwise; either way the
         segment stays sorted. *)
      let placed = ref false in
      for i = old_off.(w) to old_off.(w + 1) - 1 do
        let v = old.(i) in
        if v = u then placed := true
        else begin
          if v > u && not !placed then begin
            packed.(!idx) <- u;
            incr idx;
            placed := true
          end;
          packed.(!idx) <- v;
          incr idx
        end
      done;
      if not !placed then begin
        packed.(!idx) <- u;
        incr idx
      end
    end;
    offsets.(w + 1) <- !idx;
    next := w + 1
  in
  offsets.(0) <- 0;
  (* Merge u's old row with [star], rewriting the rows in exactly one of
     them, and u itself in its place. *)
  let i = ref old_off.(u) and stop = old_off.(u + 1) and j = ref 0 in
  let u_pending = ref true in
  while !i < stop || !j < ds do
    let a = if !i < stop then old.(!i) else max_int in
    let b = if !j < ds then star.(!j) else max_int in
    let w = if a < b then a else b in
    if !u_pending && u < w then begin
      rewrite u;
      u_pending := false
    end
    else if a = b then begin
      incr i;
      incr j
    end
    else begin
      if a < b then incr i else incr j;
      rewrite w
    end
  done;
  if !u_pending then rewrite u;
  copy_until g.n

let star_arcs g u star = (2 * g.m) - (2 * degree g u) + (2 * Array.length star)

let with_star g u star =
  check_star g.n u star;
  let total = star_arcs g u star in
  let offsets = Array.make (g.n + 1) 0 and packed = Array.make total 0 in
  write_star g u star ~offsets ~packed;
  { n = g.n; m = total / 2; offsets; packed }

(* Two CSR buffer pairs: [front]'s arrays and the back pair. A re-centring
   writes the back pair from [front] and swaps, so a move allocates only
   the new record, or a larger arc buffer when the graph outgrows it. *)
type adjacency = {
  mutable front : t;
  mutable back_offsets : int array;
  mutable back_packed : int array;
}

let adjacency g =
  let room = max 16 (4 * g.m) in
  let packed = Array.make room 0 in
  blit_ints g.packed 0 packed 0 (2 * g.m);
  {
    front = { g with offsets = Array.copy g.offsets; packed };
    back_offsets = Array.make (g.n + 1) 0;
    back_packed = Array.make room 0;
  }

let borrow a = a.front

let set_star a u star =
  let g = a.front in
  check_star g.n u star;
  let total = star_arcs g u star in
  if Array.length a.back_packed < total then a.back_packed <- Array.make (2 * total) 0;
  let offsets = a.back_offsets and packed = a.back_packed in
  write_star g u star ~offsets ~packed;
  a.back_offsets <- g.offsets;
  a.back_packed <- g.packed;
  a.front <- { n = g.n; m = total / 2; offsets; packed }

(* An adjacency's arc buffer has room past [2m]: compare the used prefix. *)
let equal a b =
  a.n = b.n && a.m = b.m && a.offsets = b.offsets
  &&
  let rec same i = i = 2 * a.m || (a.packed.(i) = b.packed.(i) && same (i + 1)) in
  same 0

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d)" g.n g.m
