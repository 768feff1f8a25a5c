(* Tests for Ncg_util: bitsets, int queues, array helpers. *)

module Bitset = Ncg_util.Bitset
module Int_queue = Ncg_util.Int_queue
module Arrayx = Ncg_util.Arrayx

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))

(* --- Bitset ------------------------------------------------------------ *)

let test_bitset_empty () =
  let s = Bitset.create 100 in
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_bool "is_empty" true (Bitset.is_empty s);
  check_bool "mem" false (Bitset.mem s 42)

let test_bitset_add_remove () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  check_int "cardinal after adds" 4 (Bitset.cardinal s);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 64" true (Bitset.mem s 64);
  Bitset.remove s 63;
  check_bool "removed" false (Bitset.mem s 63);
  check_int "cardinal after remove" 3 (Bitset.cardinal s);
  (* Removing an absent element is a no-op. *)
  Bitset.remove s 63;
  check_int "idempotent remove" 3 (Bitset.cardinal s)

let test_bitset_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 5;
  Bitset.add s 5;
  check_int "double add" 1 (Bitset.cardinal s)

let test_bitset_fill () =
  (* Capacity not a multiple of the word size: the tail must be masked. *)
  List.iter
    (fun n ->
      let s = Bitset.create n in
      Bitset.fill s;
      check_int (Printf.sprintf "fill %d" n) n (Bitset.cardinal s);
      if n > 0 then check_bool "last mem" true (Bitset.mem s (n - 1)))
    [ 0; 1; 62; 63; 64; 65; 127; 200 ]

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add s (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem s 10))

let test_bitset_set_ops () =
  let a = Bitset.of_list 100 [ 1; 2; 3; 70 ] in
  let b = Bitset.of_list 100 [ 2; 3; 4; 99 ] in
  check_int_list "union" [ 1; 2; 3; 4; 70; 99 ] (Bitset.to_list (Bitset.union a b));
  check_int_list "inter" [ 2; 3 ] (Bitset.to_list (Bitset.inter a b));
  check_int_list "diff" [ 1; 70 ] (Bitset.to_list (Bitset.diff a b));
  check_int "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  check_int "diff_cardinal" 2 (Bitset.diff_cardinal a b);
  check_bool "subset no" false (Bitset.subset a b);
  check_bool "subset yes" true (Bitset.subset (Bitset.inter a b) a);
  check_bool "disjoint no" false (Bitset.disjoint a b);
  check_bool "disjoint yes" true
    (Bitset.disjoint (Bitset.of_list 100 [ 1 ]) (Bitset.of_list 100 [ 2 ]))

let test_bitset_next_member () =
  let s = Bitset.of_list 300 [ 5; 64; 250 ] in
  check_int "from 0" 5 (Bitset.next_member s 0);
  check_int "from 6" 64 (Bitset.next_member s 6);
  check_int "from 65" 250 (Bitset.next_member s 65);
  check_int "from 251" (-1) (Bitset.next_member s 251);
  check_int "past the capacity" (-1) (Bitset.next_member s 300);
  check_int "empty" (-1) (Bitset.next_member (Bitset.create 0) 0)

let test_bitset_iter_order () =
  let s = Bitset.of_list 500 [ 400; 3; 77; 78; 0 ] in
  check_int_list "sorted" [ 0; 3; 77; 78; 400 ] (Bitset.to_list s)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 50 [ 1; 2 ] in
  let b = Bitset.copy a in
  Bitset.add b 3;
  check_bool "original untouched" false (Bitset.mem a 3);
  check_bool "copy changed" true (Bitset.mem b 3)

(* Property: bitset ops agree with a sorted-list model. *)
let bitset_model_prop =
  QCheck.Test.make ~name:"bitset agrees with list-set model" ~count:200
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let module S = Set.Make (Int) in
      let sa = S.of_list xs and sb = S.of_list ys in
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      Bitset.to_list (Bitset.union a b) = S.elements (S.union sa sb)
      && Bitset.to_list (Bitset.inter a b) = S.elements (S.inter sa sb)
      && Bitset.to_list (Bitset.diff a b) = S.elements (S.diff sa sb)
      && Bitset.cardinal a = S.cardinal sa
      && Bitset.subset a b = S.subset sa sb)

(* Property: is_empty agrees with cardinal, on capacities that are and
   are not whole words, including sets whose one bit is in the last
   word. *)
let bitset_is_empty_prop =
  QCheck.Test.make ~name:"is_empty = (cardinal = 0)" ~count:300
    QCheck.(
      quad (int_range 0 4) (int_range (-1) 1) (int_range 0 2) (small_list small_nat))
    (fun (words, offset, shape, xs) ->
      let bits = Sys.int_size in
      let capacity = max 0 ((words * bits) + offset) in
      let s = Bitset.create capacity in
      (if capacity > 0 then
         match shape with
         | 0 -> ()
         | 1 ->
             let last_word = (capacity - 1) / bits * bits in
             Bitset.add s (last_word + (List.length xs mod (capacity - last_word)))
         | _ -> List.iter (fun x -> Bitset.add s (x mod capacity)) xs);
      Bitset.is_empty s = (Bitset.cardinal s = 0))

(* --- Int_queue ---------------------------------------------------------- *)

let test_queue_fifo () =
  let q = Int_queue.create () in
  List.iter (Int_queue.push q) [ 1; 2; 3 ];
  check_int "len" 3 (Int_queue.length q);
  check_int "pop1" 1 (Int_queue.pop q);
  check_int "pop2" 2 (Int_queue.pop q);
  Int_queue.push q 4;
  check_int "pop3" 3 (Int_queue.pop q);
  check_int "pop4" 4 (Int_queue.pop q);
  check_bool "empty" true (Int_queue.is_empty q)

let test_queue_grow () =
  let q = Int_queue.create ~initial_capacity:2 () in
  for i = 0 to 99 do
    Int_queue.push q i
  done;
  for i = 0 to 99 do
    check_int "order preserved" i (Int_queue.pop q)
  done

let test_queue_wraparound () =
  (* Interleave pushes and pops so head moves around the ring. *)
  let q = Int_queue.create ~initial_capacity:4 () in
  for i = 0 to 3 do
    Int_queue.push q i
  done;
  check_int "a" 0 (Int_queue.pop q);
  check_int "b" 1 (Int_queue.pop q);
  for i = 4 to 9 do
    Int_queue.push q i
  done;
  for i = 2 to 9 do
    check_int "wrapped order" i (Int_queue.pop q)
  done

let test_queue_pop_empty () =
  let q = Int_queue.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_queue.pop: empty")
    (fun () -> ignore (Int_queue.pop q))

let test_queue_clear () =
  let q = Int_queue.create () in
  Int_queue.push q 1;
  Int_queue.clear q;
  check_bool "cleared" true (Int_queue.is_empty q);
  Int_queue.push q 9;
  check_int "usable after clear" 9 (Int_queue.pop q)

let queue_model_prop =
  QCheck.Test.make ~name:"int_queue agrees with Stdlib.Queue" ~count:200
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let q = Int_queue.create ~initial_capacity:1 () in
      let model = Queue.create () in
      List.for_all
        (fun (is_push, x) ->
          if is_push || Queue.is_empty model then begin
            Int_queue.push q x;
            Queue.push x model;
            true
          end
          else Int_queue.pop q = Queue.pop model)
        ops
      && Int_queue.length q = Queue.length model)

(* --- Arrayx ------------------------------------------------------------- *)

let test_arrayx () =
  check_int "max" 9 (Arrayx.max_elt [| 3; 9; 1 |]);
  check_int "min" 1 (Arrayx.min_elt [| 3; 9; 1 |]);
  check_int "sum" 13 (Arrayx.sum [| 3; 9; 1 |]);
  check_int "argmax first" 1 (Arrayx.argmax [| 3; 9; 9 |]);
  check_int "count" 2 (Arrayx.count (fun x -> x > 2) [| 3; 9; 1 |]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Arrayx.mean [| 1.0; 2.0; 3.0 |]);
  let a = [| 1; 2 |] in
  Arrayx.swap a 0 1;
  check_int "swap" 2 a.(0)

let test_arrayx_empty () =
  Alcotest.check_raises "max empty" (Invalid_argument "Arrayx.max_elt: empty")
    (fun () -> ignore (Arrayx.max_elt [||]))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ncg_util"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/remove" `Quick test_bitset_add_remove;
          Alcotest.test_case "add idempotent" `Quick test_bitset_add_idempotent;
          Alcotest.test_case "fill masks tail word" `Quick test_bitset_fill;
          Alcotest.test_case "bounds checked" `Quick test_bitset_bounds;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "next_member" `Quick test_bitset_next_member;
          Alcotest.test_case "iter in order" `Quick test_bitset_iter_order;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          qt bitset_model_prop;
          qt bitset_is_empty_prop;
        ] );
      ( "int_queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "grow" `Quick test_queue_grow;
          Alcotest.test_case "wraparound" `Quick test_queue_wraparound;
          Alcotest.test_case "pop empty raises" `Quick test_queue_pop_empty;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          qt queue_model_prop;
        ] );
      ( "arrayx",
        [
          Alcotest.test_case "basics" `Quick test_arrayx;
          Alcotest.test_case "empty raises" `Quick test_arrayx_empty;
        ] );
    ]
