module Bitset = Ncg_util.Bitset

type instance = {
  universe : int;
  sets : Bitset.t array;
  pre_covered : Bitset.t option;
}

type solution = { chosen : int list; cardinality : int }

(* A pool of same-capacity bitsets so the branch-and-bound recursion stops
   allocating one set per node. Acquired sets come back dirty: callers must
   overwrite them fully ([copy_into] + an [_into] op) before reading. The
   pool resets itself when the universe size changes, so one workspace can
   be threaded through solves over many instances (e.g. every radius of a
   best-response call, every call of a dynamics run). Not domain-safe: one
   workspace per domain. *)
type workspace = {
  mutable cap : int;
  mutable pool : Bitset.t list;
  (* Flat element → covering-candidate index, CSR-style, rebuilt per solve:
     [cov_idx] slots [cov_start e .. cov_off.(e) - 1] hold the candidate
     indices covering element e, ascending. One growable pair instead of a
     fresh [int list array] per solve. *)
  mutable cov_off : int array;
  mutable cov_idx : int array;
  (* Root triage's bucket counts: [by_coverage.(r)] sets cover exactly r
     elements of the initial uncovered set. *)
  mutable by_coverage : int array;
}

let create_workspace () =
  { cap = -1; pool = []; cov_off = [||]; cov_idx = [||]; by_coverage = [||] }

let acquire ws n =
  if ws.cap <> n then begin
    ws.cap <- n;
    ws.pool <- []
  end;
  match ws.pool with
  | b :: rest ->
      ws.pool <- rest;
      b
  | [] -> Bitset.create n

let release ws b = if Bitset.capacity b = ws.cap then ws.pool <- b :: ws.pool

let initial_uncovered inst =
  let u = Bitset.create inst.universe in
  Bitset.fill u;
  (match inst.pre_covered with
  | Some pre -> Bitset.diff_into ~into:u pre
  | None -> ());
  u

let is_cover inst chosen =
  let u = initial_uncovered inst in
  List.iter (fun c -> Bitset.diff_into ~into:u inst.sets.(c)) chosen;
  Bitset.is_empty u

(* Candidates that actually help (non-empty intersection with the initial
   uncovered set), with dominated candidates removed: c is dominated by c'
   when c ∩ U ⊆ c' ∩ U. Returns the useful part of each candidate plus its
   original index. *)
let reduced_candidates ws inst uncovered =
  let useful = ref [] in
  Array.iteri
    (fun i s ->
      if not (Bitset.disjoint s uncovered) then begin
        let cut = acquire ws inst.universe in
        Bitset.copy_into ~into:cut s;
        Bitset.inter_into ~into:cut uncovered;
        useful := (i, cut) :: !useful
      end)
    inst.sets;
  let arr = Array.of_list (List.rev !useful) in
  let n = Array.length arr in
  let keep = Array.make n true in
  for i = 0 to n - 1 do
    if keep.(i) then
      for j = 0 to n - 1 do
        if j <> i && keep.(j) then begin
          let _, si = arr.(i) and _, sj = arr.(j) in
          (* Drop j if it is contained in i; ties broken by index so that
             exactly one of two equal sets survives. *)
          if Bitset.subset sj si && (not (Bitset.equal si sj) || i < j) then
            keep.(j) <- false
        end
      done
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := arr.(i) :: !out
    else release ws (snd arr.(i))
  done;
  Array.of_list !out

(* Hand every candidate cut back to the pool once a solve is done. *)
let release_candidates ws candidates =
  Array.iter (fun (_, cut) -> release ws cut) candidates

let feasible candidates uncovered =
  (* Every uncovered element must appear in some candidate. *)
  let coverable = Bitset.create (Bitset.capacity uncovered) in
  Array.iter (fun (_, s) -> Bitset.union_into ~into:coverable s) candidates;
  Bitset.subset uncovered coverable

(* Greedy over [candidates], giving up (as uncovered) after [limit] picks. *)
let greedy_on ?(limit = max_int) ws candidates uncovered0 =
  Ncg_obs.Metrics.(incr set_cover_greedy);
  let uncovered = acquire ws (Bitset.capacity uncovered0) in
  Bitset.copy_into ~into:uncovered uncovered0;
  let chosen = ref [] and picks = ref 0 in
  let continue_ = ref true in
  while (not (Bitset.is_empty uncovered)) && !continue_ && !picks < limit do
    Ncg_fault.Cancel.checkpoint ();
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun i (_, s) ->
        let gain = Bitset.inter_cardinal s uncovered in
        if gain > !best_gain then begin
          best := i;
          best_gain := gain
        end)
      candidates;
    if !best < 0 then continue_ := false
    else begin
      let orig, s = candidates.(!best) in
      chosen := orig :: !chosen;
      incr picks;
      Bitset.diff_into ~into:uncovered s
    end
  done;
  let covered = Bitset.is_empty uncovered in
  release ws uncovered;
  if covered then Some (List.rev !chosen) else None

let greedy ?ws inst =
  let ws = match ws with Some w -> w | None -> create_workspace () in
  let uncovered = initial_uncovered inst in
  if Bitset.is_empty uncovered then Some { chosen = []; cardinality = 0 }
  else begin
    let candidates = reduced_candidates ws inst uncovered in
    let result =
      match greedy_on ws candidates uncovered with
      | Some chosen -> Some { chosen; cardinality = List.length chosen }
      | None -> None
    in
    release_candidates ws candidates;
    result
  end

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

(* Lower bound: a greedy family of elements no two of which share a
   candidate; each requires its own set. [covers_elt.(e)] lists candidate
   indices covering e. *)
let lower_bound ws candidates uncovered =
  let cov_off = ws.cov_off and cov_idx = ws.cov_idx in
  let rest = acquire ws (Bitset.capacity uncovered) in
  Bitset.copy_into ~into:rest uncovered;
  let lb = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Bitset.choose_from rest 0 with
    | None -> continue_ := false
    | Some e ->
        incr lb;
        (* Remove every element co-coverable with e. *)
        for i = (if e = 0 then 0 else cov_off.(e - 1)) to cov_off.(e) - 1 do
          let _, s = candidates.(cov_idx.(i)) in
          Bitset.diff_into ~into:rest s
        done
  done;
  release ws rest;
  !lb

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
    if Array.length ws.by_coverage <= u then ws.by_coverage <- Array.make (u + 1) 0;
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

(* Branch and bound below the root: candidate cuts, dominance filter,
   cover index, greedy incumbent, then the search. *)
let search ws inst uncovered0 ~cap ~node_budget =
  let candidates = reduced_candidates ws inst uncovered0 in
  if not (feasible candidates uncovered0) then begin
    release_candidates ws candidates;
    None
  end
  else begin
    let ncand = Array.length candidates in
    let u_cap = inst.universe in
    (* Flat covers index into the workspace arrays: counts at [e + 1],
       prefix-summed to starts, then a cursor pass that leaves
       [cov_off.(e)] at the *end* of element e's slice (so the start is
       [cov_off.(e - 1)], or 0 for e = 0). Candidate order inside a slice
       is ascending, exactly as the former per-element lists. *)
    if Array.length ws.cov_off < u_cap + 1 then
      ws.cov_off <- Array.make (u_cap + 1) 0;
    let cov_off = ws.cov_off in
    Array.fill cov_off 0 (u_cap + 1) 0;
    Array.iter
      (fun (_, s) -> Bitset.iter (fun e -> cov_off.(e + 1) <- cov_off.(e + 1) + 1) s)
      candidates;
    for e = 1 to u_cap do
      cov_off.(e) <- cov_off.(e) + cov_off.(e - 1)
    done;
    let total = cov_off.(u_cap) in
    if Array.length ws.cov_idx < total then ws.cov_idx <- Array.make total 0;
    let cov_idx = ws.cov_idx in
    for ci = 0 to ncand - 1 do
      let _, s = candidates.(ci) in
      Bitset.iter
        (fun e ->
          cov_idx.(cov_off.(e)) <- ci;
          cov_off.(e) <- cov_off.(e) + 1)
        s
    done;
    let cov_start e = if e = 0 then 0 else cov_off.(e - 1) in
    (* Incumbent from greedy, which gives up beyond the cap. *)
    let best_card = ref (cap + 1) in
    let best_sol = ref None in
    (match greedy_on ~limit:cap ws candidates uncovered0 with
    | Some chosen ->
        best_card := List.length chosen;
        best_sol := Some chosen
    | None -> ());
    let nodes = ref 0 in
    let rec branch uncovered depth acc =
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
          best_sol := Some (List.rev acc)
        end
      end
      else if depth + 1 < !best_card then begin
        let lb = lower_bound ws candidates uncovered in
        if depth + lb >= !best_card then
          Ncg_obs.Metrics.(incr set_cover_cutoffs)
        else begin
          (* Branch on the uncovered element with fewest live candidates. *)
          let pick = ref (-1) and pick_count = ref max_int in
          Bitset.iter
            (fun e ->
              let c = cov_off.(e) - cov_start e in
              if c < !pick_count then begin
                pick := e;
                pick_count := c
              end)
            uncovered;
          let e = !pick in
          (* Try candidates covering e, largest residual coverage first. *)
          let opts = ref [] in
          for i = cov_off.(e) - 1 downto cov_start e do
            let ci = cov_idx.(i) in
            let _, s = candidates.(ci) in
            opts := (ci, Bitset.inter_cardinal s uncovered) :: !opts
          done;
          let opts = !opts in
          let opts = List.sort (fun (_, a) (_, b) -> compare b a) opts in
          List.iter
            (fun (ci, _) ->
              if depth + 1 < !best_card then begin
                let orig, s = candidates.(ci) in
                let uncovered' = acquire ws inst.universe in
                Bitset.copy_into ~into:uncovered' uncovered;
                Bitset.diff_into ~into:uncovered' s;
                branch uncovered' (depth + 1) (orig :: acc);
                release ws uncovered'
              end)
            opts
        end
      end
    in
    branch uncovered0 0 [];
    release_candidates ws candidates;
    Ncg_obs.Metrics.(add set_cover_nodes !nodes);
    if !nodes > node_budget then Ncg_obs.Metrics.(incr set_cover_budget_exhausted);
    Option.map (fun chosen -> { chosen; cardinality = !best_card }) !best_sol
  end

let solve ?ws ?max_size ?(node_budget = max_int) inst =
  Ncg_obs.Histogram.(time set_cover) @@ fun () ->
  Ncg_obs.Metrics.(incr set_cover_solves);
  let ws = match ws with Some w -> w | None -> create_workspace () in
  let uncovered0 = initial_uncovered inst in
  let cap = match max_size with Some m -> m | None -> inst.universe + 1 in
  if Bitset.is_empty uncovered0 then
    if cap < 0 then None else Some { chosen = []; cardinality = 0 }
  else
    match triage ws inst uncovered0 ~cap with
    | Some decided ->
        Ncg_obs.Metrics.(incr set_cover_root_decided);
        Option.map (fun chosen -> { chosen; cardinality = List.length chosen }) decided
    | None -> search ws inst uncovered0 ~cap ~node_budget
