(** Move traces of dynamics runs.

    A trace records every accepted strategy change — (round, player, old
    targets, new targets) — so a run can be audited, serialized, diffed
    across solver configurations, and {e replayed}: applying the moves to
    the initial profile must reproduce the final profile exactly, which
    the test suite uses as an end-to-end invariant of the engine. *)

type move = {
  round : int;  (** 1-based round in which the move happened *)
  player : int;
  before : int list;  (** owned targets before, host ids, sorted *)
  after : int list;  (** owned targets after, host ids, sorted *)
}

type t = {
  n : int;  (** number of players *)
  moves : move list;  (** chronological *)
}

val empty : int -> t

(** [replay initial t] applies the moves in order.
    @raise Invalid_argument if a move's [before] does not match the
    profile state when its turn comes (a corrupted or misordered trace),
    or player counts mismatch. *)
val replay : Strategy.t -> t -> Strategy.t

(** Number of moves. *)
val length : t -> int

(** Text serialization, one move per line:
    ["round player | before... | after..."]; round-trips with
    {!of_string}. *)
val to_string : t -> string

(** @raise Invalid_argument on malformed input. *)
val of_string : string -> t
