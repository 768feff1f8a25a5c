(** Minimal markdown document builder.

    Just the constructs the experiment reports need — headings, paragraphs,
    pipe tables, fenced code blocks, bullet lists — rendered with the
    escaping rules pipe tables require. *)

type t

val create : unit -> t

val heading : t -> int -> string -> unit
(** [heading t level text] — [level] clamped to 1..6. *)

val paragraph : t -> string -> unit

(** [table t ~header rows] renders a pipe table; every row is padded or
    truncated to the header width. Cell text has [|] escaped. *)
val table : t -> header:string list -> string list list -> unit

(** [code_block ?lang t text] — fenced block; fences inside [text] are
    lengthened around as needed. *)
val code_block : ?lang:string -> t -> string -> unit

val to_string : t -> string
