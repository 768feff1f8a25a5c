(** Fixed-capacity, deterministically downsampled time series.

    A series records [(x, y)] samples — typically (round, signal) pairs
    from a dynamics trajectory — in bounded memory: storage never exceeds
    [capacity] samples no matter how many are pushed. When the buffer
    fills, every other stored sample is dropped and the retention stride
    doubles, so the series always keeps an evenly spaced, order-preserving
    subsequence of everything pushed (the first sample is always
    retained). Which samples survive depends only on [capacity] and the
    number of pushes — never on time, domain or scheduling — so two runs
    that push the same samples produce bit-identical series (the
    per-cell determinism contract of {!Ncg_core.Experiment}).

    Storage grows on demand, from none up to [capacity] samples, and
    depends on [capacity] and {!length} alone: a series and its {!of_json}
    decoding are structurally equal ([compare] = 0). *)

type t

(** [create ~capacity ()] is an empty series storing at most [capacity]
    samples (default 64). Raises [Invalid_argument] when [capacity < 2]. *)
val create : ?capacity:int -> unit -> t

(** [push t ~x y] records the sample [(x, y)]. The sample is stored when
    the push index (0-based count of pushes so far) is a multiple of the
    current {!stride}, and dropped otherwise. *)
val push : t -> x:float -> float -> unit

(** [push_lazy t ~x f] is [push t ~x (f ())], except [f] only runs when
    the sample would actually be stored — for signals that are expensive
    to compute (e.g. a full social-cost evaluation). *)
val push_lazy : t -> x:float -> (unit -> float) -> unit

(** True when the next {!push} would store its sample — the guard callers
    use to skip computing expensive signals for dropped rounds. *)
val wants : t -> bool

(** Stored samples (≤ {!capacity}). *)
val length : t -> int

val is_empty : t -> bool

(** Maximum stored samples, as given to {!create}. *)
val capacity : t -> int

(** Current retention stride: sample [i*stride] of the push sequence is
    stored sample [i]. Starts at 1 and doubles on each decimation. *)
val stride : t -> int

(** Total samples ever pushed (stored or dropped). *)
val pushed : t -> int

(** Stored samples in push order. *)
val to_list : t -> (float * float) list

(** Most recently stored sample. *)
val last : t -> (float * float) option

(** Structural equality on the logical state (capacity, stride, push
    count, stored samples). NaN-safe: compares floats with
    [Float.compare], so [nan] equals [nan]. *)
val equal : t -> t -> bool

(** {1 JSON codec}

    Schema ["ncg.obs.timeseries/1"]. The codec is exact and NaN-safe:
    finite floats round-trip bit-exactly through {!Json.float_repr}, and
    non-finite values (which {!Json} would otherwise flatten to [null])
    are encoded as the strings ["nan"], ["inf"], ["-inf"]. *)

val schema : string

val to_json : t -> Json.t

(** [of_json (to_json t)] restores [t] exactly ({!equal}). A capacity
    below 2, which {!create} rejects by raising, is an [Error] here. *)
val of_json : Json.t -> (t, string) result
