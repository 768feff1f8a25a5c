(** Graph powers.

    The paper's exact best-response algorithm (Section 5.3) reduces
    MaxNCG best response to minimum dominating set on the (h−1)-th power
    of the view minus the player. *)

(** [power g h] has an edge (u, v) iff [0 < d_g(u, v) <= h].
    [power g 1] equals [g]. @raise Invalid_argument if [h < 0].
    [power g 0] is the empty graph on the same vertices. *)
val power : Graph.t -> int -> Graph.t
