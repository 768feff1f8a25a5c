(* Dense bitset over an int array. We use the full native int width (63 bits
   on 64-bit platforms) per word; [bits] is computed from [Sys.int_size] so
   the module also works on 32-bit platforms. *)

let bits = Sys.int_size

type t = { capacity : int; words : int array }

let words_for n = if n = 0 then 0 else ((n - 1) / bits) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity = n; words = Array.make (words_for n) 0 }

let capacity s = s.capacity
let copy s = { capacity = s.capacity; words = Array.copy s.words }

(* Word loops rather than [Array.blit]/[Array.fill]: the sets here are a
   few words long, shorter than the cost of the C call. *)
let copy_into ~into s =
  if into.capacity <> s.capacity then
    invalid_arg "Bitset.copy_into: operands have different capacities";
  let src = s.words and dst = into.words in
  for i = 0 to Array.length src - 1 do
    dst.(i) <- src.(i)
  done

let check s i =
  if i < 0 || i >= s.capacity then invalid_arg "Bitset: index out of bounds"

let add s i =
  check s i;
  s.words.(i / bits) <- s.words.(i / bits) lor (1 lsl (i mod bits))

let remove s i =
  check s i;
  s.words.(i / bits) <- s.words.(i / bits) land lnot (1 lsl (i mod bits))

let mem s i =
  check s i;
  s.words.(i / bits) land (1 lsl (i mod bits)) <> 0

(* Population count via a 16-bit lookup table: four (five on the top sliver)
   byte-pair probes per word instead of one loop iteration per set bit, which
   matters because the solver calls [cardinal]/[inter_cardinal] on every
   branch-and-bound node. *)
let pop16 =
  (let t = Bytes.create 65536 in
   for i = 0 to 65535 do
     let rec kern acc w = if w = 0 then acc else kern (acc + 1) (w land (w - 1)) in
     Bytes.unsafe_set t i (Char.chr (kern 0 i))
   done;
   t)
[@@lint.domain_local "filled once at module initialisation, read-only after"]

let popcount w =
  (* [w] can be negative (bit 62 set on 64-bit); split with logical shifts. *)
  let p i = Char.code (Bytes.unsafe_get pop16 i) in
  let acc = ref (p (w land 0xffff)) in
  let w = ref (w lsr 16) in
  while !w <> 0 do
    acc := !acc + p (!w land 0xffff);
    w := !w lsr 16
  done;
  !acc

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words
(* A plain loop: [Array.for_all] allocates its closure on every call. *)
let is_empty s =
  let words = s.words in
  let i = ref 0 in
  while !i < Array.length words && words.(!i) = 0 do
    incr i
  done;
  !i = Array.length words
let clear s =
  let words = s.words in
  for i = 0 to Array.length words - 1 do
    words.(i) <- 0
  done

let fill s =
  Array.fill s.words 0 (Array.length s.words) (-1);
  (* Mask out the bits beyond [capacity] in the last word so that cardinal
     and iteration stay correct. *)
  let n = s.capacity in
  if n > 0 then begin
    let last = Array.length s.words - 1 in
    let used = n - (last * bits) in
    if used < bits then s.words.(last) <- (1 lsl used) - 1
  end

let same_capacity a b =
  if a.capacity <> b.capacity then
    invalid_arg "Bitset: operands have different capacities"

let union_into ~into s =
  same_capacity into s;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor s.words.(i)
  done

let inter_into ~into s =
  same_capacity into s;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land s.words.(i)
  done

let diff_into ~into s =
  same_capacity into s;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land lnot s.words.(i)
  done

let union a b = let r = copy a in union_into ~into:r b; r
let inter a b = let r = copy a in inter_into ~into:r b; r
let diff a b = let r = copy a in diff_into ~into:r b; r

(* The three predicates below are flat while-loops rather than local
   recursive functions: a [let rec] capturing the operands costs a closure
   allocation per call, and the solver's dominance filter calls these
   O(candidates²) times per solve. *)
let subset a b =
  same_capacity a b;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) land lnot b.words.(!i) = 0 do incr i done;
  !i >= n

let equal a b =
  same_capacity a b;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) = b.words.(!i) do incr i done;
  !i >= n

let disjoint a b =
  same_capacity a b;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) land b.words.(!i) = 0 do incr i done;
  !i >= n

let inter_cardinal a b =
  same_capacity a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let diff_cardinal a b =
  same_capacity a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land lnot b.words.(i))
  done;
  !acc

let iter f s =
  for wi = 0 to Array.length s.words - 1 do
    let base = wi * bits in
    let w = ref s.words.(wi) in
    while !w <> 0 do
      (* Index of the lowest set bit: popcount of the mask of bits below it. *)
      let low = !w land - !w in
      f (base + popcount (low - 1));
      w := !w lxor low
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (fun i -> add s i) xs;
  s

(* Flat loop for the same reason as [subset], and an int result rather
   than an option: the solver asks for the next member on every step of
   its lower bound. *)
let next_member s i0 =
  let i0 = if i0 < 0 then 0 else i0 in
  if i0 >= s.capacity then -1
  else begin
    let words = s.words in
    let last = Array.length words - 1 in
    let wi = ref (i0 / bits) in
    (* First word: mask off the bits below [i0]. *)
    let w = ref (words.(!wi) land (-1 lsl (i0 mod bits))) in
    while !w = 0 && !wi < last do
      incr wi;
      w := words.(!wi)
    done;
    if !w = 0 then -1 else (!wi * bits) + popcount ((!w land - !w) - 1)
  end

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list s)
