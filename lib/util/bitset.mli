(** Fixed-capacity dense bitsets over [0, capacity).

    Backed by an [int array] (63 usable bits per word on 64-bit platforms).
    All operations assume both operands were created with the same capacity;
    this is checked with assertions. Used pervasively by the set-cover solver
    and by graph algorithms that need fast membership tests. *)

type t

(** [create n] is an empty bitset able to hold elements in [0, n). *)
val create : int -> t

(** Capacity the set was created with. *)
val capacity : t -> int

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

(** [copy_into ~into s] overwrites [into] with the contents of [s] without
    allocating. Both sets must share a capacity. *)
val copy_into : into:t -> t -> unit

(** [add s i] sets bit [i]. *)
val add : t -> int -> unit

(** [remove s i] clears bit [i]. *)
val remove : t -> int -> unit

(** [mem s i] is [true] iff bit [i] is set. *)
val mem : t -> int -> bool

(** Number of set bits. O(words). *)
val cardinal : t -> int

(** [is_empty s] is [cardinal s = 0], but faster. *)
val is_empty : t -> bool

(** [clear s] removes every element. *)
val clear : t -> unit

(** [fill s] adds every element of [0, capacity). *)
val fill : t -> unit

(** [union_into ~into s] sets [into := into ∪ s]. *)
val union_into : into:t -> t -> unit

(** [inter_into ~into s] sets [into := into ∩ s]. *)
val inter_into : into:t -> t -> unit

(** [diff_into ~into s] sets [into := into \ s]. *)
val diff_into : into:t -> t -> unit

(** [union a b] is a fresh set [a ∪ b]. *)
val union : t -> t -> t

(** [inter a b] is a fresh set [a ∩ b]. *)
val inter : t -> t -> t

(** [diff a b] is a fresh set [a \ b]. *)
val diff : t -> t -> t

(** [subset a b] is [true] iff every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [equal a b] is extensional equality. *)
val equal : t -> t -> bool

(** [disjoint a b] is [true] iff [a ∩ b] is empty. *)
val disjoint : t -> t -> bool

(** [inter_cardinal a b] is [cardinal (inter a b)] without allocating. *)
val inter_cardinal : t -> t -> int

(** [diff_cardinal a b] is [cardinal (diff a b)] without allocating. *)
val diff_cardinal : t -> t -> int

(** [iter f s] applies [f] to every member in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Members in increasing order. *)
val to_list : t -> int list

(** [of_list n xs] is the set holding the elements of [xs], capacity [n]. *)
val of_list : int -> int list -> t

(** [next_member s i] is the least member ≥ [i], or [-1] when there is
    none. [next_member s 0] is the minimum. Allocates nothing. *)
val next_member : t -> int -> int

(** Pretty-printer: [{1, 5, 7}]. *)
val pp : Format.formatter -> t -> unit
