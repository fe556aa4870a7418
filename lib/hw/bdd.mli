(** Reduced ordered binary decision diagrams.

    A small hash-consed ROBDD package (the classical structure of the
    paper's reference [4], Bryant 1986), used by the symbolic
    equivalence checker: canonical form means two functions are equal
    iff their node handles are equal, and a differing pair yields a
    concrete counterexample by walking one path.

    Variables are non-negative integers ordered by value (smaller =
    closer to the root).  All operations are memoized. *)

type man
(** A manager owns the unique table and the [ite] memo: open-addressing
    tables over flat int arrays, so a lookup allocates nothing.  Both
    are lossless, so node handles and {!node_count} depend only on the
    sequence of operations performed. *)

type t
(** A node handle, canonical within its manager. *)

val manager : unit -> man

val tru : t
val fls : t
val var : man -> int -> t
val nvar : man -> int -> t
(** Complemented variable. *)

val neg : man -> t -> t
val conj : man -> t -> t -> t
val disj : man -> t -> t -> t
val xor : man -> t -> t -> t
val xnor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val equal : t -> t -> bool
(** Function equality (canonical handles). *)

val is_tru : t -> bool
val is_fls : t -> bool

val node_count : man -> int
(** Nodes allocated so far, terminals included (diagnostics; proofs
    print it). *)

val any_sat : man -> t -> (int * bool) list option
(** A satisfying assignment (variables not mentioned are don't-care),
    or [None] for the constant-false function. *)

val eval : man -> t -> (int -> bool) -> bool
(** Evaluate under a full assignment. *)
