(* Tests for the exact set-cover / dominating-set solver (the Gurobi
   replacement). *)

module Bitset = Ncg_util.Bitset
module Set_cover = Ncg_solver.Set_cover
module Dominating_set = Ncg_solver.Dominating_set
module Graph = Ncg_graph.Graph
module Classic = Ncg_gen.Classic
module Rng = Ncg_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let instance ?pre_covered universe sets =
  {
    Set_cover.universe;
    sets = Array.of_list (List.map (Bitset.of_list universe) sets);
    pre_covered = Option.map (Bitset.of_list universe) pre_covered;
  }

let cardinality inst =
  match Set_cover.solve inst with
  | Some s -> s.Set_cover.cardinality
  | None -> -1

(* --- Set cover ----------------------------------------------------------- *)

let test_trivial () =
  check_int "one set covers" 1 (cardinality (instance 3 [ [ 0; 1; 2 ] ]));
  check_int "empty universe" 0 (cardinality (instance 0 []))

let test_partition () =
  check_int "needs both" 2 (cardinality (instance 4 [ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2 ] ]))

let test_greedy_trap () =
  (* Classic instance where greedy picks the big set but optimum is 2:
     universe {0..5}, sets {0,1,2,3} (greedy bait), {0,1,4}? Use the
     standard trap: optimal = rows, greedy = the big striped set. *)
  let inst =
    instance 6 [ [ 0; 1; 2; 3 ]; [ 0; 2; 4 ]; [ 1; 3; 5 ]; [ 4 ]; [ 5 ] ]
  in
  check_int "exact finds 2" 2 (cardinality inst);
  match Set_cover.greedy inst with
  | Some g -> check_bool "greedy feasible" true (Set_cover.is_cover inst g.Set_cover.chosen)
  | None -> Alcotest.fail "greedy must succeed"

let test_infeasible () =
  Alcotest.(check bool)
    "element 2 uncoverable" true
    (Set_cover.solve (instance 3 [ [ 0; 1 ] ]) = None)

let test_pre_covered () =
  let inst = instance ~pre_covered:[ 2 ] 3 [ [ 0; 1 ] ] in
  check_int "pre-covered rescues" 1 (cardinality inst);
  let inst_all = instance ~pre_covered:[ 0; 1; 2 ] 3 [] in
  check_int "fully pre-covered" 0 (cardinality inst_all)

let test_max_size () =
  let inst = instance 4 [ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2 ] ] in
  Alcotest.(check bool) "cap 1 infeasible" true (Set_cover.solve ~max_size:1 inst = None);
  check_int "cap 2 ok" 2
    (match Set_cover.solve ~max_size:2 inst with
    | Some s -> s.Set_cover.cardinality
    | None -> -1)

let test_duplicate_sets () =
  (* Equal candidate sets: dominance reduction must keep exactly one. *)
  let inst = instance 2 [ [ 0; 1 ]; [ 0; 1 ]; [ 0 ] ] in
  check_int "one suffices" 1 (cardinality inst)

let test_solution_indices_original () =
  (* Chosen indices must refer to the original [sets] array even after
     dominance elimination reorders candidates internally. *)
  let inst = instance 3 [ [ 0 ]; [ 0; 1; 2 ] ] in
  match Set_cover.solve inst with
  | Some { Set_cover.chosen = [ i ]; _ } -> check_int "picks the big set" 1 i
  | _ -> Alcotest.fail "expected a single-set solution"

let counted f = snd (Ncg_obs.Metrics.collect f)
let count snap name = Option.value (List.assoc_opt name snap) ~default:0

let test_root_bound () =
  (* Feasible with 3 sets, but the two largest coverages (3 + 2) fall
     short of the 7 elements: the root rejects cap 2 without a search. *)
  let inst = instance 7 [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5; 6 ]; [ 0; 3 ] ] in
  let snap =
    counted (fun () ->
        check_bool "cap 2 rejected" true (Set_cover.solve ~max_size:2 inst = None))
  in
  check_int "decided at the root" 1 (count snap "set_cover.root_decided");
  check_int "no search" 0 (count snap "set_cover.bb_nodes");
  check_int "cap 3 ok" 3
    (match Set_cover.solve ~max_size:3 inst with
    | Some s -> s.Set_cover.cardinality
    | None -> -1)

let test_budget_exhausted () =
  let inst = instance 6 [ [ 0; 1; 2; 3 ]; [ 0; 2; 4 ]; [ 1; 3; 5 ]; [ 4 ]; [ 5 ] ] in
  let budgeted =
    counted (fun () ->
        match Set_cover.solve ~node_budget:1 inst with
        | Some s ->
            check_bool "incumbent is a cover" true
              (Set_cover.is_cover inst s.Set_cover.chosen)
        | None -> Alcotest.fail "the greedy incumbent survives the budget")
  in
  check_int "budget bit once" 1 (count budgeted "set_cover.budget_exhausted");
  let exact = counted (fun () -> ignore (Set_cover.solve inst)) in
  check_int "exact search never bites" 0 (count exact "set_cover.budget_exhausted")

(* Exhaustive reference solver for small instances. *)
let brute_force inst =
  let n_sets = Array.length inst.Set_cover.sets in
  let best = ref max_int in
  for mask = 0 to (1 lsl n_sets) - 1 do
    let chosen = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n_sets Fun.id) in
    if Set_cover.is_cover inst chosen then best := min !best (List.length chosen)
  done;
  if !best = max_int then None else Some !best

let prop_matches_brute_force =
  QCheck.Test.make ~name:"B&B matches brute force on random instances" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 8) (list_of_size (Gen.int_range 0 5) (int_bound 7))))
    (fun (universe, raw_sets) ->
      let sets = List.map (List.filter (fun x -> x < universe)) raw_sets in
      let inst = instance universe sets in
      let expected = brute_force inst in
      let got = Option.map (fun s -> s.Set_cover.cardinality) (Set_cover.solve inst) in
      got = expected)

let test_dp_basics () =
  check_int "partition" 2
    (match Set_cover.solve_dp (instance 4 [ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2 ] ]) with
    | Some s -> s.Set_cover.cardinality
    | None -> -1);
  Alcotest.(check bool) "infeasible" true (Set_cover.solve_dp (instance 3 [ [ 0 ] ]) = None);
  check_int "pre-covered only" 0
    (match Set_cover.solve_dp (instance ~pre_covered:[ 0; 1 ] 2 []) with
    | Some s -> s.Set_cover.cardinality
    | None -> -1);
  Alcotest.check_raises "guard"
    (Invalid_argument "Set_cover.solve_dp: universe too large for the DP") (fun () ->
      ignore (Set_cover.solve_dp (instance 23 [ [ 0 ] ])))

(* Random instances with the shapes best responses produce: duplicate
   sets, empty sets (a forbidden vertex dominates nothing) and
   pre-covered elements (free dominators). *)
let gen_instance =
  QCheck.Gen.(
    int_range 1 12 >>= fun universe ->
    list_size (int_range 1 10) (list_size (int_range 0 8) (int_bound (universe - 1)))
    >>= fun sets ->
    int_bound 3 >>= fun extra ->
    let sets =
      match extra with
      | 0 -> sets @ [ List.hd sets ] (* a duplicate *)
      | 1 -> sets @ [ [] ] (* an empty set *)
      | _ -> sets
    in
    opt (list_size (int_range 0 4) (int_bound (universe - 1))) >>= fun pre_covered ->
    return (instance ?pre_covered universe sets))

let print_instance inst =
  let set s = "[" ^ String.concat ";" (List.map string_of_int (Bitset.to_list s)) ^ "]" in
  Printf.sprintf "universe %d, sets %s, pre %s" inst.Set_cover.universe
    (String.concat " " (Array.to_list (Array.map set inst.Set_cover.sets)))
    (match inst.Set_cover.pre_covered with Some p -> set p | None -> "none")

(* [solve ?max_size] against the DP optimum, for max_size in
   {0, 1, dp - 1, dp, none}: [None] exactly when the optimum exceeds the
   cap, otherwise the optimum's cardinality; a one-set optimum is the
   lowest-index superset of the uncovered elements. *)
let prop_dp_matches_branch_and_bound =
  QCheck.Test.make ~name:"DP and B&B find the same optimum" ~count:500
    (QCheck.make
       ~print:(fun (inst, m) ->
         Printf.sprintf "%s, cap choice %d" (print_instance inst) m)
       QCheck.Gen.(pair gen_instance (int_bound 4)))
    (fun (inst, choice) ->
      let dp = Set_cover.solve_dp inst in
      let opt = Option.map (fun (s : Set_cover.solution) -> s.Set_cover.cardinality) dp in
      let max_size =
        match (choice, opt) with
        | 0, _ -> Some 0
        | 1, _ -> Some 1
        | 2, Some o -> Some (o - 1)
        | 3, Some o -> Some o
        | _ -> None
      in
      let within =
        match (opt, max_size) with
        | Some o, Some m -> o <= m
        | Some _, None -> true
        | None, _ -> false
      in
      let uncovered =
        List.filter
          (fun e ->
            match inst.Set_cover.pre_covered with
            | Some p -> not (Bitset.mem p e)
            | None -> true)
          (List.init inst.Set_cover.universe Fun.id)
      in
      let first_superset () =
        List.find
          (fun i -> List.for_all (Bitset.mem inst.Set_cover.sets.(i)) uncovered)
          (List.init (Array.length inst.Set_cover.sets) Fun.id)
      in
      (match dp with
      | Some s -> Set_cover.is_cover inst s.Set_cover.chosen
      | None -> true)
      &&
      match Set_cover.solve ?max_size inst with
      | None -> not within
      | Some s ->
          within
          && Some s.Set_cover.cardinality = opt
          && Set_cover.is_cover inst s.Set_cover.chosen
          && (opt <> Some 1 || s.Set_cover.chosen = [ first_superset () ]))

let prop_greedy_feasible =
  QCheck.Test.make ~name:"greedy returns feasible covers when exact does" ~count:200
    QCheck.(
      pair (int_range 1 10)
        (list_of_size (Gen.int_range 1 10) (list_of_size (Gen.int_range 0 6) (int_bound 9))))
    (fun (universe, raw_sets) ->
      let sets = List.map (List.filter (fun x -> x < universe)) raw_sets in
      let inst = instance universe sets in
      match (Set_cover.greedy inst, Set_cover.solve inst) with
      | Some g, Some s ->
          Set_cover.is_cover inst g.Set_cover.chosen
          && g.Set_cover.cardinality >= s.Set_cover.cardinality
      | None, None -> true
      | _ -> false)

(* --- The search before its node was made cheap ------------------------------

   The branch and bound as it was before co-cover masks, count-ordered
   branching and per-depth buffers, kept as the reference that the
   equivalence fence below compares [Set_cover.solve] with. It is
   [Set_cover]'s code of that time with pooled scratch bitsets, per-node
   option lists and a per-candidate lower bound; only [choose_from],
   since deleted from [Bitset], became [next_member]. *)

module Reference_cover = struct
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
    let u = Bitset.create inst.Set_cover.universe in
    Bitset.fill u;
    (match inst.Set_cover.pre_covered with
    | Some pre -> Bitset.diff_into ~into:u pre
    | None -> ());
    u

  (* Candidates that actually help (non-empty intersection with the initial
     uncovered set), with dominated candidates removed: c is dominated by c'
     when c ∩ U ⊆ c' ∩ U. Returns the useful part of each candidate plus its
     original index. *)
  let reduced_candidates ws inst uncovered =
    let useful = ref [] in
    Array.iteri
      (fun i s ->
        if not (Bitset.disjoint s uncovered) then begin
          let cut = acquire ws inst.Set_cover.universe in
          Bitset.copy_into ~into:cut s;
          Bitset.inter_into ~into:cut uncovered;
          useful := (i, cut) :: !useful
        end)
      inst.Set_cover.sets;
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
    if Bitset.is_empty uncovered then Some { Set_cover.chosen = []; cardinality = 0 }
    else begin
      let candidates = reduced_candidates ws inst uncovered in
      let result =
        match greedy_on ws candidates uncovered with
        | Some chosen -> Some { Set_cover.chosen; cardinality = List.length chosen }
        | None -> None
      in
      release_candidates ws candidates;
      result
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
      match Bitset.next_member rest 0 with
      | -1 -> continue_ := false
      | e ->
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
      let n = Array.length inst.Set_cover.sets in
      let rec superset i =
        if i = n then None
        else begin
          let r = Bitset.inter_cardinal inst.Set_cover.sets.(i) uncovered in
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
      let u_cap = inst.Set_cover.universe in
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
                  let uncovered' = acquire ws inst.Set_cover.universe in
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
      Option.map (fun chosen -> { Set_cover.chosen; cardinality = !best_card }) !best_sol
    end

  let solve ?ws ?max_size ?(node_budget = max_int) inst =
    Ncg_obs.Metrics.(incr set_cover_solves);
    let ws = match ws with Some w -> w | None -> create_workspace () in
    let uncovered0 = initial_uncovered inst in
    let cap = match max_size with Some m -> m | None -> inst.Set_cover.universe + 1 in
    if Bitset.is_empty uncovered0 then
      if cap < 0 then None else Some { Set_cover.chosen = []; cardinality = 0 }
    else
      match triage ws inst uncovered0 ~cap with
      | Some decided ->
          Ncg_obs.Metrics.(incr set_cover_root_decided);
          Option.map
            (fun chosen -> { Set_cover.chosen; cardinality = List.length chosen })
            decided
      | None -> search ws inst uncovered0 ~cap ~node_budget
end

let cover_counters =
  [
    "set_cover.solves";
    "set_cover.bb_nodes";
    "set_cover.bb_cutoffs";
    "set_cover.budget_exhausted";
    "set_cover.greedy_runs";
    "set_cover.root_decided";
  ]

(* Instances with the shapes the searches see: universes up to 140, so
   across the 63-bit word boundaries, sparse to dense sets, some pre-covered
   elements and a random cap and node budget. *)
let gen_search_case =
  QCheck.Gen.(
    int_range 1 140 >>= fun universe ->
    int_range 1 40 >>= fun nsets ->
    oneofl [ 0.03; 0.08; 0.15; 0.3 ] >>= fun density ->
    list_repeat nsets (list_repeat universe (float_bound_exclusive 1.)) >>= fun draws ->
    (* Mostly feasible: an element no set drew joins set [e mod nsets]. *)
    frequencyl [ (4, true); (1, false) ] >>= fun patch ->
    bool >>= fun with_pre ->
    list_repeat universe (float_bound_exclusive 1.) >>= fun pre_draws ->
    opt (int_bound 20) >>= fun max_size ->
    oneof [ int_range 1 500; return max_int ] >>= fun node_budget ->
    let picked p xs = Array.of_list (List.map (fun x -> x < p) xs) in
    let member = Array.of_list (List.map (picked density) draws) in
    let drawn e = Array.exists (fun m -> m.(e)) member in
    if patch then
      for e = 0 to universe - 1 do
        if not (drawn e) then member.(e mod nsets).(e) <- true
      done;
    let elements m = List.filter (fun e -> m.(e)) (List.init universe Fun.id) in
    let sets = Array.to_list (Array.map elements member) in
    let pre_covered = if with_pre then Some (elements (picked 0.2 pre_draws)) else None in
    return (instance ?pre_covered universe sets, max_size, node_budget))

let print_search_case (inst, max_size, node_budget) =
  Printf.sprintf "%s, max_size %s, node_budget %s" (print_instance inst)
    (match max_size with Some m -> string_of_int m | None -> "none")
    (if node_budget = max_int then "unbounded" else string_of_int node_budget)

(* One workspace each, threaded through every case of every universe, so
   the stamps and the resizing of the banks are exercised too. *)
let fence_ws = Set_cover.create_workspace ()
let reference_ws = Reference_cover.create_workspace ()

let prop_search_matches_reference =
  QCheck.Test.make ~name:"B&B = the reference search, counters included" ~count:1000
    (QCheck.make ~print:print_search_case gen_search_case)
    (fun (inst, max_size, node_budget) ->
      let run solve = Ncg_obs.Metrics.collect solve in
      let got, got_snap =
        run (fun () -> Set_cover.solve ~ws:fence_ws ?max_size ~node_budget inst)
      in
      let want, want_snap =
        run (fun () -> Reference_cover.solve ~ws:reference_ws ?max_size ~node_budget inst)
      in
      let counters snap = List.map (count snap) cover_counters in
      let greedy = Set_cover.greedy ~ws:fence_ws inst in
      let greedy_want = Reference_cover.greedy ~ws:reference_ws inst in
      if got <> want then QCheck.Test.fail_report "solutions differ";
      if counters got_snap <> counters want_snap then
        QCheck.Test.fail_reportf "counters differ: %s vs reference %s"
          (String.concat " " (List.map string_of_int (counters got_snap)))
          (String.concat " " (List.map string_of_int (counters want_snap)));
      greedy = greedy_want)

(* --- Dominating set ------------------------------------------------------- *)

let test_mds_star () =
  let p = { Dominating_set.graph = Classic.star 8; radius = 1; free_dominators = []; forbidden = [] } in
  match Dominating_set.solve p with
  | Some [ 0 ] -> ()
  | Some other -> Alcotest.failf "expected center, got %d picks" (List.length other)
  | None -> Alcotest.fail "star must be dominable"

let test_mds_path () =
  (* P6 has domination number 2. *)
  let p = { Dominating_set.graph = Classic.path 6; radius = 1; free_dominators = []; forbidden = [] } in
  match Dominating_set.solve p with
  | Some chosen ->
      check_int "gamma(P6) = 2" 2 (List.length chosen);
      check_bool "dominates" true (Dominating_set.dominates p chosen)
  | None -> Alcotest.fail "path must be dominable"

let test_mds_cycle_values () =
  (* gamma(C_n) = ceil(n/3). *)
  List.iter
    (fun n ->
      let p = { Dominating_set.graph = Classic.cycle n; radius = 1; free_dominators = []; forbidden = [] } in
      match Dominating_set.solve p with
      | Some chosen -> check_int (Printf.sprintf "gamma(C%d)" n) ((n + 2) / 3) (List.length chosen)
      | None -> Alcotest.fail "cycle must be dominable")
    [ 3; 4; 5; 6; 7; 9; 10 ]

let test_mds_radius () =
  (* Radius 2 on P5: the center covers everything; on P6 (radius 3) two
     vertices are needed. *)
  let solve_path n =
    let p = { Dominating_set.graph = Classic.path n; radius = 2; free_dominators = []; forbidden = [] } in
    match Dominating_set.solve p with
    | Some chosen -> List.length chosen
    | None -> -1
  in
  check_int "distance-2 domination of P5" 1 (solve_path 5);
  check_int "distance-2 domination of P6" 2 (solve_path 6)

let test_mds_radius_zero () =
  (* Radius 0: everyone must be picked (minus free). *)
  let p = { Dominating_set.graph = Classic.path 4; radius = 0; free_dominators = [ 1 ]; forbidden = [] } in
  match Dominating_set.solve p with
  | Some chosen -> check_int "all but free" 3 (List.length chosen)
  | None -> Alcotest.fail "must be dominable"

let test_mds_free_dominators () =
  let p = { Dominating_set.graph = Classic.star 8; radius = 1; free_dominators = [ 0 ]; forbidden = [] } in
  match Dominating_set.solve p with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "free center should dominate everything"
  | None -> Alcotest.fail "must be dominable"

let test_mds_forbidden () =
  (* Star with forbidden center: every leaf must be bought. *)
  let p = { Dominating_set.graph = Classic.star 5; radius = 1; free_dominators = []; forbidden = [ 0 ] } in
  match Dominating_set.solve p with
  | Some chosen -> check_bool "several picks" true (List.length chosen >= 3)
  | None -> Alcotest.fail "leaves can self-dominate"

let test_mds_free_and_forbidden_interplay () =
  (* Path 0-1-2-3-4: vertex 0 dominates for free, vertices 1 and 2 are
     forbidden; cover {2,3,4} needs a dominator among {3,4}: vertex 3. *)
  let p =
    {
      Dominating_set.graph = Classic.path 5;
      radius = 1;
      free_dominators = [ 0 ];
      forbidden = [ 1; 2 ];
    }
  in
  (match Dominating_set.solve p with
  | Some chosen ->
      check_int "single pick" 1 (List.length chosen);
      Alcotest.(check bool) "picks 3" true (chosen = [ 3 ]);
      Alcotest.(check bool) "dominates" true (Dominating_set.dominates p chosen)
  | None -> Alcotest.fail "feasible");
  (* Forbidding everything not already covered makes it infeasible. *)
  let impossible =
    {
      Dominating_set.graph = Classic.path 5;
      radius = 1;
      free_dominators = [];
      forbidden = [ 0; 1; 2; 3; 4 ];
    }
  in
  Alcotest.(check bool) "all forbidden infeasible" true
    (Dominating_set.solve impossible = None)

let test_mds_disconnected () =
  (* Two components: need one dominator per component. *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let p = { Dominating_set.graph = g; radius = 1; free_dominators = []; forbidden = [] } in
  match Dominating_set.solve p with
  | Some chosen -> check_int "one per component" 2 (List.length chosen)
  | None -> Alcotest.fail "must be dominable"

let prop_mds_on_random_graphs =
  QCheck.Test.make ~name:"exact MDS <= greedy MDS, both dominating" ~count:100
    QCheck.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Ncg_gen.Random_tree.generate rng n in
      let p = { Dominating_set.graph = g; radius = 1; free_dominators = []; forbidden = [] } in
      match (Dominating_set.solve p, Dominating_set.greedy p) with
      | Some exact, Some greedy ->
          Dominating_set.dominates p exact
          && Dominating_set.dominates p greedy
          && List.length exact <= List.length greedy
      | _ -> false)

(* The one-shot API runs through [context], the best-response path. On
   random graphs it must reach the DP optimum of the instance built from
   the naive reference balls, with a choice that dominates there. *)
let prop_context_solve_matches_dp =
  QCheck.Test.make ~name:"context-backed solve = DP on reference balls" ~count:300
    QCheck.(triple (int_range 1 12) (int_range 0 3) (int_range 0 1_000_000))
    (fun (n, radius, seed) ->
      let rng = Rng.create seed in
      let pick p = List.filter (fun _ -> Rng.bernoulli rng p) in
      let pairs =
        List.concat
          (List.init n (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1))))
      in
      let edges = pick 0.3 pairs in
      let vertices = List.init n Fun.id in
      let free_dominators = pick 0.15 vertices in
      let forbidden = pick 0.2 vertices in
      let reference = Ncg_graph.Reference.of_edges ~n edges in
      let ball v = Bitset.of_list n (Ncg_graph.Reference.ball reference v ~radius) in
      let pre = Bitset.create n in
      List.iter (fun v -> Bitset.union_into ~into:pre (ball v)) free_dominators;
      let inst =
        {
          Set_cover.universe = n;
          sets =
            Array.init n (fun v ->
                if List.mem v forbidden then Bitset.create n else ball v);
          pre_covered = Some pre;
        }
      in
      let graph = Graph.of_edges ~n edges in
      let p = { Dominating_set.graph; radius; free_dominators; forbidden } in
      match (Dominating_set.solve p, Set_cover.solve_dp inst) with
      | None, None -> true
      | Some chosen, Some dp ->
          List.length chosen = dp.Set_cover.cardinality && Set_cover.is_cover inst chosen
      | _ -> false)

(* --- The masked, recurrence-grown context against the reference path ----- *)

module Subgraph = Ncg_graph.Subgraph
module Reference = Ncg_graph.Reference
module View = Ncg.View
module Best_response = Ncg.Best_response

(* The set-cover instance of the dominating-set problem on [g] at
   [radius], from the naive reference balls. *)
let reference_instance g ~radius ~free_dominators ~forbidden =
  let n = Graph.order g in
  let r = Reference.of_edges ~n (Graph.edges g) in
  let ball v = Bitset.of_list n (Reference.ball r v ~radius) in
  let pre = Bitset.create n in
  List.iter (fun v -> Bitset.union_into ~into:pre (ball v)) free_dominators;
  {
    Set_cover.universe = n;
    sets = Array.init n (fun v -> if List.mem v forbidden then Bitset.create n else ball v);
    pre_covered = Some pre;
  }

(* [g] minus [x] as an induced subgraph H0, with the two renamings. *)
let without g x =
  let n = Graph.order g in
  let h0, m = Subgraph.induced g (List.filter (( <> ) x) (List.init n Fun.id)) in
  (h0, (fun v -> m.Subgraph.to_sub.(v)), fun v -> m.Subgraph.to_host.(v))

let random_edges rng n p =
  List.concat (List.init n (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1))))
  |> List.filter (fun _ -> Rng.bernoulli rng p)

let test_solve_at_below_built_radius () =
  let ctx =
    Dominating_set.context ~graph:(Classic.path 8) ~free_dominators:[] ~forbidden:[] ()
  in
  check_bool "radius 3" true (Dominating_set.solve_at ctx ~radius:3 <> None);
  check_bool "radius 3 again" true (Dominating_set.solve_at ctx ~radius:3 <> None);
  Alcotest.check_raises "radius 1 after 3"
    (Invalid_argument "Dominating_set: radius below the context's built radius")
    (fun () -> ignore (Dominating_set.solve_at ctx ~radius:1));
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Dominating_set: radius below the context's built radius")
    (fun () ->
      ignore
        (Dominating_set.solve
           { graph = Classic.path 3; radius = -1; free_dominators = []; forbidden = [] }))

(* One context with a masked vertex, walked over radii 0..n, returns at
   every radius exactly the list the reference path does: H0 = the graph
   minus the masked vertex, reference balls of H0, the same solver call,
   the answer mapped back to host ids. One workspace serves every
   context, so reuse across orders is exercised too. *)
let prop_masked_context_matches_reference =
  let ws = Dominating_set.create_workspace () in
  let cover_ws = Set_cover.create_workspace () in
  QCheck.Test.make ~name:"masked context = induced H0 on reference balls" ~count:300
    QCheck.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Graph.of_edges ~n (random_edges rng n (Rng.float rng *. 0.5)) in
      let x = Rng.int rng n in
      let others = List.filter (( <> ) x) (List.init n Fun.id) in
      let free_dominators = List.filter (fun _ -> Rng.bernoulli rng 0.15) others in
      let forbidden = List.filter (fun _ -> Rng.bernoulli rng 0.2) (List.init n Fun.id) in
      let ctx =
        Dominating_set.context ~ws ~exclude:x ~graph:g ~free_dominators ~forbidden ()
      in
      let h0, to_h0, of_h0 = without g x in
      let map = Option.map (fun (s : Set_cover.solution) -> List.map of_h0 s.chosen) in
      List.for_all
        (fun radius ->
          let inst =
            reference_instance h0 ~radius
              ~free_dominators:(List.map to_h0 free_dominators)
              ~forbidden:(List.filter_map
                            (fun v -> if v = x then None else Some (to_h0 v))
                            forbidden)
          in
          let max_size = if Rng.bool rng then None else Some (Rng.int rng (n + 1)) in
          let greedy = Dominating_set.greedy_at ~ws:cover_ws ctx ~radius in
          Dominating_set.solve_at ~ws:cover_ws ?max_size ctx ~radius
          = map (Set_cover.solve ?max_size inst)
          && greedy = map (Set_cover.greedy inst))
        (List.init (n + 1) Fun.id))

(* [Best_response.compute] as it was before the masked context: the view
   minus the player copied into H0, the radius loop on H0's reference
   balls, the targets mapped back to view ids. *)
let h0_best_response ?(solver = `Exact) ?allowed ~alpha (v : View.t) =
  let nv = Graph.order v.View.graph in
  let current =
    {
      Best_response.targets = v.View.owned;
      usage = Best_response.current_usage v;
      cost = Best_response.current_cost ~alpha v;
    }
  in
  if nv <= 1 then current
  else begin
    let h0, to_h0, of_h0 = without v.View.graph v.View.player in
    let free_dominators = List.map to_h0 v.View.in_buyers in
    let forbidden =
      match allowed with
      | None -> []
      | Some whitelist ->
          let ok = List.map to_h0 whitelist in
          List.filter (fun x -> not (List.mem x ok)) (List.init (Graph.order h0) Fun.id)
    in
    let best = ref current in
    let h = ref 1 in
    while !h <= nv && float_of_int !h < !best.cost -. 1e-9 do
      let max_size =
        if alpha <= 0.0 then nv
        else begin
          let cap = (!best.cost -. float_of_int !h) /. alpha in
          if cap >= float_of_int nv then nv else int_of_float (ceil (cap -. 1e-9))
        end
      in
      let inst = reference_instance h0 ~radius:(!h - 1) ~free_dominators ~forbidden in
      let solution =
        match solver with
        | `Exact -> Set_cover.solve ~max_size inst
        | `Budgeted node_budget -> Set_cover.solve ~max_size ~node_budget inst
        | `Greedy -> (
            match Set_cover.greedy inst with
            | Some s when s.Set_cover.cardinality <= max_size -> Some s
            | Some _ | None -> None)
      in
      (match solution with
      | Some s ->
          let cost =
            (alpha *. float_of_int (List.length s.Set_cover.chosen)) +. float_of_int !h
          in
          if cost < !best.cost -. 1e-12 then
            best :=
              { Best_response.targets = List.map of_h0 s.Set_cover.chosen; usage = !h; cost }
      | None -> ());
      incr h
    done;
    !best
  end

(* Every player's best response in a random profile equals the H0-based
   one, with and without an [allowed] whitelist, for each solver. One
   workspace is threaded through all the views, whose orders differ. *)
let prop_best_response_matches_h0 =
  QCheck.Test.make ~name:"Best_response.compute = H0-based compute" ~count:150
    QCheck.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let tree = Ncg_gen.Random_tree.generate rng n in
      let g = Graph.add_edges tree (random_edges rng n 0.1) in
      let s = Ncg.Strategy.random_orientation rng g in
      let g = Ncg.Strategy.graph s in
      let ws = Ncg.Workspace.create () in
      let alpha = Rng.choose rng [| 0.05; 0.3; 1.; 2.5; 7. |] in
      let k = 1 + Rng.int rng 4 in
      List.for_all
        (fun u ->
          let v = View.extract s g ~k u in
          let nv = Graph.order v.View.graph in
          let allowed =
            List.sort_uniq compare
              (v.View.owned
              @ List.filter (fun _ -> Rng.bernoulli rng 0.5) (List.init nv Fun.id))
          in
          List.for_all
            (fun solver ->
              compare
                (Best_response.compute ~ws ~solver ~alpha v)
                (h0_best_response ~solver ~alpha v)
              = 0
              && compare
                   (Best_response.compute ~ws ~solver ~allowed ~alpha v)
                   (h0_best_response ~solver ~allowed ~alpha v)
                 = 0)
            [ `Exact; `Budgeted 3; `Greedy ])
        (List.init n Fun.id))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ncg_solver"
    [
      ( "set_cover",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "greedy trap" `Quick test_greedy_trap;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "pre-covered" `Quick test_pre_covered;
          Alcotest.test_case "max_size" `Quick test_max_size;
          Alcotest.test_case "duplicate sets" `Quick test_duplicate_sets;
          Alcotest.test_case "original indices" `Quick test_solution_indices_original;
          Alcotest.test_case "dp basics" `Quick test_dp_basics;
          Alcotest.test_case "root coverage bound" `Quick test_root_bound;
          Alcotest.test_case "budget exhausted counter" `Quick test_budget_exhausted;
          qt prop_matches_brute_force;
          qt prop_dp_matches_branch_and_bound;
          qt prop_greedy_feasible;
          qt prop_search_matches_reference;
        ] );
      ( "dominating_set",
        [
          Alcotest.test_case "star" `Quick test_mds_star;
          Alcotest.test_case "path" `Quick test_mds_path;
          Alcotest.test_case "cycles" `Quick test_mds_cycle_values;
          Alcotest.test_case "radius 2" `Quick test_mds_radius;
          Alcotest.test_case "radius 0" `Quick test_mds_radius_zero;
          Alcotest.test_case "free dominators" `Quick test_mds_free_dominators;
          Alcotest.test_case "forbidden" `Quick test_mds_forbidden;
          Alcotest.test_case "free+forbidden interplay" `Quick
            test_mds_free_and_forbidden_interplay;
          Alcotest.test_case "disconnected" `Quick test_mds_disconnected;
          qt prop_mds_on_random_graphs;
          qt prop_context_solve_matches_dp;
          Alcotest.test_case "solve_at below the built radius" `Quick
            test_solve_at_below_built_radius;
          qt prop_masked_context_matches_reference;
          qt prop_best_response_matches_h0;
        ] );
    ]
