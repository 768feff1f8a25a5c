module Bitset = Ncg_util.Bitset

type instance = {
  universe : int;
  sets : Bitset.t array;
  pre_covered : Bitset.t option;
}

type solution = { chosen : int list; cardinality : int }

(* Every buffer a solve needs, so the branch and bound allocates nothing
   per node. The bitset banks hold sets of capacity [cap]; a slot of
   another capacity (the [empty] placeholder, or a set left over from an
   instance of another universe) is replaced on first use, so one workspace
   can be threaded through solves over many instances (every radius of a
   best-response call, every call of a dynamics run). Not domain-safe: one
   workspace per domain. *)
type workspace = {
  mutable cap : int;
  (* The candidates of the current solve: the cut [cuts.(i)] of the
     uncovered set by [inst.sets.(orig.(i))], in increasing [orig]. *)
  mutable cuts : Bitset.t array;
  mutable orig : int array;
  (* Dominance filter's survivors: [keep.(i) = 1] while cut i is kept. *)
  mutable keep : int array;
  (* [levels.(0)] is the uncovered set at the root, [levels.(d)] the one
     of the search node at depth d. *)
  mutable levels : Bitset.t array;
  (* Scratch of [feasible], [greedy_on] and [lower_bound], which never
     run inside one another. *)
  mutable rest : Bitset.t;
  (* Co-cover masks: [masks.(e)] is the union of the cuts covering e,
     valid for the current search iff [mask_stamp.(e) = stamp]. *)
  mutable masks : Bitset.t array;
  mutable mask_stamp : int array;
  mutable stamp : int;
  (* Flat element → covering-candidate index, CSR-style, rebuilt per solve:
     [cov_idx] slots [cov_start e .. cov_off.(e) - 1] hold the candidate
     indices covering element e, ascending. *)
  mutable cov_off : int array;
  mutable cov_idx : int array;
  (* Root triage's bucket counts: [by_coverage.(r)] sets cover exactly r
     elements of the initial uncovered set. The search reuses it for the
     counting sort of [order]. *)
  mutable by_coverage : int array;
  (* The root's uncovered elements by (candidate count, index). *)
  mutable order : int array;
  (* Branching options of the nodes on the current path, stacked: a node
     owns the slots from its parent's end to its own. *)
  mutable opt_cand : int array;
  mutable opt_gain : int array;
  (* [path.(d)]: the set chosen at depth d on the current path. *)
  mutable path : int array;
}

let empty = Bitset.create 0

let create_workspace () =
  {
    cap = 0;
    cuts = [||];
    orig = [||];
    keep = [||];
    levels = [||];
    rest = empty;
    masks = [||];
    mask_stamp = [||];
    stamp = 0;
    cov_off = [||];
    cov_idx = [||];
    by_coverage = [||];
    order = [||];
    opt_cand = [||];
    opt_gain = [||];
    path = [||];
  }

(* [ints a n] is [a] if it holds n ints, else a larger zeroed array. *)
let ints a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* [bank a n] is [a] if it holds n slots, else a larger copy padded with
   the placeholder. *)
let bank a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) empty in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Slot [i] of a bank, (re)created at the workspace's capacity. *)
let slot ws banked i =
  let b = banked.(i) in
  if Bitset.capacity b = ws.cap then b
  else begin
    let b = Bitset.create ws.cap in
    banked.(i) <- b;
    b
  end

(* Size the workspace for an instance over [0, universe). *)
let prepare ws inst =
  let u = inst.universe in
  if ws.cap <> u then begin
    ws.cap <- u;
    ws.rest <- Bitset.create u
  end;
  ws.levels <- bank ws.levels (u + 1);
  ws.masks <- bank ws.masks u;
  ws.mask_stamp <- ints ws.mask_stamp u

let initial_uncovered_into into inst =
  Bitset.fill into;
  match inst.pre_covered with
  | Some pre -> Bitset.diff_into ~into pre
  | None -> ()

let is_cover inst chosen =
  let u = Bitset.create inst.universe in
  initial_uncovered_into u inst;
  List.iter (fun c -> Bitset.diff_into ~into:u inst.sets.(c)) chosen;
  Bitset.is_empty u

(* The candidates that actually help (non-empty intersection with the
   initial uncovered set), with dominated candidates removed: c is
   dominated by c' when c ∩ U ⊆ c' ∩ U. Leaves the useful part of each
   survivor in [ws.cuts] and its original index in [ws.orig], and returns
   their number. *)
let reduced_candidates ws inst uncovered =
  let nsets = Array.length inst.sets in
  ws.cuts <- bank ws.cuts nsets;
  ws.orig <- ints ws.orig nsets;
  let cuts = ws.cuts and orig = ws.orig in
  let n = ref 0 in
  for i = 0 to nsets - 1 do
    let s = inst.sets.(i) in
    if not (Bitset.disjoint s uncovered) then begin
      let cut = slot ws cuts !n in
      Bitset.copy_into ~into:cut s;
      Bitset.inter_into ~into:cut uncovered;
      orig.(!n) <- i;
      incr n
    end
  done;
  let n = !n in
  ws.keep <- ints ws.keep n;
  let keep = ws.keep in
  Array.fill keep 0 n 1;
  for i = 0 to n - 1 do
    if keep.(i) = 1 then
      for j = 0 to n - 1 do
        if j <> i && keep.(j) = 1 then begin
          let si = cuts.(i) and sj = cuts.(j) in
          (* Drop j if it is contained in i; ties broken by index so that
             exactly one of two equal sets survives. *)
          if Bitset.subset sj si && (not (Bitset.equal si sj) || i < j) then
            keep.(j) <- 0
        end
      done
  done;
  (* Compact the survivors, in order, swapping the dropped cuts behind. *)
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) = 1 then begin
      let c = cuts.(i) in
      cuts.(i) <- cuts.(!m);
      cuts.(!m) <- c;
      orig.(!m) <- orig.(i);
      incr m
    end
  done;
  !m

let feasible ws ncand uncovered =
  (* Every uncovered element must appear in some candidate. *)
  let coverable = ws.rest in
  Bitset.clear coverable;
  for i = 0 to ncand - 1 do
    Bitset.union_into ~into:coverable ws.cuts.(i)
  done;
  Bitset.subset uncovered coverable

(* Greedy over the [ncand] candidates, giving up (as uncovered) after
   [limit] picks. *)
let greedy_on ?(limit = max_int) ws ncand uncovered0 =
  Ncg_obs.Metrics.(incr set_cover_greedy);
  let cuts = ws.cuts in
  let uncovered = ws.rest in
  Bitset.copy_into ~into:uncovered uncovered0;
  let chosen = ref [] and picks = ref 0 in
  let continue_ = ref true in
  while (not (Bitset.is_empty uncovered)) && !continue_ && !picks < limit do
    Ncg_fault.Cancel.checkpoint ();
    let best = ref (-1) and best_gain = ref 0 in
    for i = 0 to ncand - 1 do
      let gain = Bitset.inter_cardinal cuts.(i) uncovered in
      if gain > !best_gain then begin
        best := i;
        best_gain := gain
      end
    done;
    if !best < 0 then continue_ := false
    else begin
      chosen := ws.orig.(!best) :: !chosen;
      incr picks;
      Bitset.diff_into ~into:uncovered cuts.(!best)
    end
  done;
  if Bitset.is_empty uncovered then Some (List.rev !chosen) else None

let greedy ?ws inst =
  let ws = match ws with Some w -> w | None -> create_workspace () in
  prepare ws inst;
  let uncovered = slot ws ws.levels 0 in
  initial_uncovered_into uncovered inst;
  if Bitset.is_empty uncovered then Some { chosen = []; cardinality = 0 }
  else
    let ncand = reduced_candidates ws inst uncovered in
    Option.map
      (fun chosen -> { chosen; cardinality = List.length chosen })
      (greedy_on ws ncand uncovered)

(* Exact DP over covered-element masks. dp.(mask) = fewest sets whose
   union, together with the pre-covered elements, covers exactly the
   elements of [mask] or more... precisely: dp.(mask) = fewest sets
   covering a superset of mask's uncovered part. We iterate the standard
   relaxation: dp.(mask | set) <- dp.(mask) + 1. *)
let solve_dp inst =
  if inst.universe > 22 then
    invalid_arg "Set_cover.solve_dp: universe too large for the DP";
  let to_mask s = Bitset.fold (fun i acc -> acc lor (1 lsl i)) s 0 in
  let full = (1 lsl inst.universe) - 1 in
  let pre = match inst.pre_covered with Some p -> to_mask p | None -> 0 in
  let sets = Array.map to_mask inst.sets in
  let size = full + 1 in
  let dp = Array.make size max_int in
  let choice = Array.make size (-1) in
  let parent = Array.make size 0 in
  dp.(pre land full) <- 0;
  (* Masks in increasing order: [mask lor set >= mask], so a single sweep
     relaxes everything (sets only add bits). *)
  for mask = 0 to full do
    if dp.(mask) < max_int then
      Array.iteri
        (fun i set ->
          let next = mask lor set in
          if dp.(mask) + 1 < dp.(next) then begin
            dp.(next) <- dp.(mask) + 1;
            choice.(next) <- i;
            parent.(next) <- mask
          end)
        sets
  done;
  if dp.(full) = max_int then None
  else begin
    let chosen = ref [] in
    let mask = ref full in
    while choice.(!mask) >= 0 do
      chosen := choice.(!mask) :: !chosen;
      mask := parent.(!mask)
    done;
    Some { chosen = !chosen; cardinality = dp.(full) }
  end

(* Root triage: decide a solve from the coverages r_i = |sets_i ∩ U| of
   the initial uncovered set U alone, before any candidate cut exists.
   [Some answer] is exactly what [search] would return:

   - cap < 1: U is non-empty, so no cover of size <= cap exists;
   - [i], the first set with r_i = |U|: it survives the dominance filter
     (only a lower-index equal cut could drop it), greedy takes it as the
     first maximum gain, and the search never beats cardinality 1;
   - the fewest sets whose largest coverages add up to |U| exceed cap
     (or even all of them fall short): no cover of size <= cap exists, so
     neither greedy nor the search, budgeted or not, finds one. With
     cap = 1 and no superset of U this always fires.

   The coverage-sum bound is applied at the root only; the per-node bound
   stays the independent-element packing, so the search's visit order and
   its budgeted answers are unchanged. *)
let triage ws inst uncovered ~cap =
  if cap < 1 then Some None
  else begin
    let u = Bitset.cardinal uncovered in
    ws.by_coverage <- ints ws.by_coverage (u + 1);
    let count = ws.by_coverage in
    Array.fill count 0 (u + 1) 0;
    let n = Array.length inst.sets in
    let rec superset i =
      if i = n then None
      else begin
        let r = Bitset.inter_cardinal inst.sets.(i) uncovered in
        if r = u then Some i
        else begin
          count.(r) <- count.(r) + 1;
          superset (i + 1)
        end
      end
    in
    match superset 0 with
    | Some i -> Some (Some [ i ])
    | None ->
        (* [need] sets of coverage > r add up to [sum] < u. *)
        let rec fewest r ~sum ~need =
          if r = 0 then max_int
          else begin
            let c = count.(r) in
            let take = (u - sum + r - 1) / r in
            if take <= c then need + take
            else fewest (r - 1) ~sum:(sum + (c * r)) ~need:(need + c)
          end
        in
        if fewest (u - 1) ~sum:0 ~need:0 > cap then Some None else None
  end

let cov_start ws e = if e = 0 then 0 else ws.cov_off.(e - 1)

(* The co-cover mask of element e: every element that shares a candidate
   with e. Built the first time a search asks for it. *)
let cocover ws e =
  if ws.mask_stamp.(e) = ws.stamp then ws.masks.(e)
  else begin
    let m = slot ws ws.masks e in
    Bitset.clear m;
    for i = cov_start ws e to ws.cov_off.(e) - 1 do
      Bitset.union_into ~into:m ws.cuts.(ws.cov_idx.(i))
    done;
    ws.mask_stamp.(e) <- ws.stamp;
    m
  end

(* Lower bound: a greedy family of elements no two of which share a
   candidate; each requires its own set. The family takes the least
   element left and drops its co-cover mask. Stops once it reaches
   [need], which is all the caller compares it with. *)
let lower_bound ws uncovered ~need =
  let rest = ws.rest in
  Bitset.copy_into ~into:rest uncovered;
  let lb = ref 0 in
  let e = ref (Bitset.next_member rest 0) in
  while !e >= 0 && !lb < need do
    incr lb;
    Bitset.diff_into ~into:rest (cocover ws !e);
    e := Bitset.next_member rest (!e + 1)
  done;
  !lb

(* The flat covers index into the workspace arrays: counts at [e + 1],
   prefix-summed to starts, then a cursor pass that leaves [cov_off.(e)]
   at the *end* of element e's slice (so the start is [cov_off.(e - 1)],
   or 0 for e = 0). Candidate order inside a slice is ascending. *)
let index_covers ws ncand =
  let u_cap = ws.cap in
  ws.cov_off <- ints ws.cov_off (u_cap + 1);
  let cov_off = ws.cov_off in
  Array.fill cov_off 0 (u_cap + 1) 0;
  for ci = 0 to ncand - 1 do
    Bitset.iter (fun e -> cov_off.(e + 1) <- cov_off.(e + 1) + 1) ws.cuts.(ci)
  done;
  for e = 1 to u_cap do
    cov_off.(e) <- cov_off.(e) + cov_off.(e - 1)
  done;
  let total = cov_off.(u_cap) in
  ws.cov_idx <- ints ws.cov_idx total;
  let cov_idx = ws.cov_idx in
  for ci = 0 to ncand - 1 do
    Bitset.iter
      (fun e ->
        cov_idx.(cov_off.(e)) <- ci;
        cov_off.(e) <- cov_off.(e) + 1)
      ws.cuts.(ci)
  done;
  total

(* [ws.order]: the elements of [uncovered0] by (candidate count, index),
   by a counting sort into [ws.order] and [ws.by_coverage], sized by the
   caller. The count of an element is fixed for the solve, so the
   uncovered element with the fewest candidates, lowest index first, is
   the first of [order] still uncovered. *)
let order_elements ws ncand uncovered0 =
  let bucket = ws.by_coverage and order = ws.order in
  let count e = ws.cov_off.(e) - cov_start ws e in
  Array.fill bucket 0 (ncand + 2) 0;
  Bitset.iter (fun e -> bucket.(count e + 1) <- bucket.(count e + 1) + 1) uncovered0;
  for c = 1 to ncand + 1 do
    bucket.(c) <- bucket.(c) + bucket.(c - 1)
  done;
  Bitset.iter
    (fun e ->
      let c = count e in
      order.(bucket.(c)) <- e;
      bucket.(c) <- bucket.(c) + 1)
    uncovered0

(* Branch and bound below the root: candidate cuts, dominance filter,
   cover index, greedy incumbent, then the search. *)
let search ws inst uncovered0 ~cap ~node_budget =
  let ncand = reduced_candidates ws inst uncovered0 in
  if not (feasible ws ncand uncovered0) then None
  else begin
    let total = index_covers ws ncand in
    ws.by_coverage <- ints ws.by_coverage (ncand + 2);
    ws.order <- ints ws.order ws.cap;
    ws.stamp <- ws.stamp + 1;
    ws.opt_cand <- ints ws.opt_cand total;
    ws.opt_gain <- ints ws.opt_gain total;
    ws.path <- ints ws.path (ws.cap + 1);
    let cuts = ws.cuts and orig = ws.orig and levels = ws.levels in
    let cov_off = ws.cov_off and cov_idx = ws.cov_idx and order = ws.order in
    let opt_cand = ws.opt_cand and opt_gain = ws.opt_gain and path = ws.path in
    (* Incumbent from greedy, which gives up beyond the cap. *)
    let best_card = ref (cap + 1) in
    let best_sol = ref None in
    (match greedy_on ~limit:cap ws ncand uncovered0 with
    | Some chosen ->
        best_card := List.length chosen;
        best_sol := Some chosen
    | None -> ());
    let nodes = ref 0 and ordered = ref false in
    (* A node at [depth] with [uncovered] elements left: [order] holds
       no uncovered element before [from], and the node's branching
       options go to the stack slots from [top]. Each chosen set covers
       at least one new element, so depth stays within the universe, and
       the options on a path, one slice of [cov_idx] per distinct
       element, fit into [total] slots. *)
    let rec branch uncovered depth from top =
      (* Cooperative cancellation per B&B node: an executor deadline
         (--cell-deadline-ms) or step budget can cut off one oversized
         solve instead of waiting for the node budget. One atomic read
         when nothing is armed. *)
      Ncg_fault.Cancel.checkpoint ();
      incr nodes;
      if !nodes > node_budget then ()
      else if Bitset.is_empty uncovered then begin
        if depth < !best_card then begin
          best_card := depth;
          best_sol := Some (List.init depth (Array.get path))
        end
      end
      else if depth + 1 < !best_card then begin
        if depth + lower_bound ws uncovered ~need:(!best_card - depth) >= !best_card
        then Ncg_obs.Metrics.(incr set_cover_cutoffs)
        else begin
          (* Branch on the uncovered element with fewest candidates. The
             order is sorted at the first branching node: most searches
             end at the root, by the bound. *)
          if not !ordered then begin
            order_elements ws ncand uncovered0;
            ordered := true
          end;
          let p = ref from in
          while not (Bitset.mem uncovered order.(!p)) do
            incr p
          done;
          let e = order.(!p) in
          let lo = cov_start ws e in
          let c = cov_off.(e) - lo in
          (* Try candidates covering e, largest residual coverage first,
             ties in index order: a stable insertion sort. *)
          for j = 0 to c - 1 do
            let ci = cov_idx.(lo + j) in
            let gain = Bitset.inter_cardinal cuts.(ci) uncovered in
            let k = ref (top + j) in
            while !k > top && opt_gain.(!k - 1) < gain do
              opt_gain.(!k) <- opt_gain.(!k - 1);
              opt_cand.(!k) <- opt_cand.(!k - 1);
              decr k
            done;
            opt_gain.(!k) <- gain;
            opt_cand.(!k) <- ci
          done;
          let child = slot ws levels (depth + 1) in
          for j = top to top + c - 1 do
            if depth + 1 < !best_card then begin
              let ci = opt_cand.(j) in
              Bitset.copy_into ~into:child uncovered;
              Bitset.diff_into ~into:child cuts.(ci);
              path.(depth) <- orig.(ci);
              branch child (depth + 1) (!p + 1) (top + c)
            end
          done
        end
      end
    in
    branch uncovered0 0 0 0;
    Ncg_obs.Metrics.(add set_cover_nodes !nodes);
    if !nodes > node_budget then Ncg_obs.Metrics.(incr set_cover_budget_exhausted);
    Option.map (fun chosen -> { chosen; cardinality = !best_card }) !best_sol
  end

let solve ?ws ?max_size ?(node_budget = max_int) inst =
  Ncg_obs.Histogram.(time set_cover) @@ fun () ->
  Ncg_obs.Metrics.(incr set_cover_solves);
  let ws = match ws with Some w -> w | None -> create_workspace () in
  prepare ws inst;
  let uncovered0 = slot ws ws.levels 0 in
  initial_uncovered_into uncovered0 inst;
  let cap = match max_size with Some m -> m | None -> inst.universe + 1 in
  if Bitset.is_empty uncovered0 then
    if cap < 0 then None else Some { chosen = []; cardinality = 0 }
  else
    match triage ws inst uncovered0 ~cap with
    | Some decided ->
        Ncg_obs.Metrics.(incr set_cover_root_decided);
        Option.map (fun chosen -> { chosen; cardinality = List.length chosen }) decided
    | None -> search ws inst uncovered0 ~cap ~node_budget
