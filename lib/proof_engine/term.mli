(** Hash-consed terms over {!Hw.Expr}'s operators: the data domain of
    the symbolic co-simulator ({!Symsim}).

    A term is a constant, a variable (a register's symbolic initial
    contents) or an operator applied to terms.  Terms are hash-consed
    in a {!table}: one table never holds two nodes with the same
    operator and the same operands, so two terms built from the same
    operators on the same operands are physically equal, and comparing
    them costs one pointer test.  This is the data abstraction of
    Burch & Dill's pipeline proofs: the pipelined and the sequential
    machine apply the same stage functions to the same operands, so
    their results meet in the same term.

    The smart constructors fold: an operator on constants is the
    constant {!Hw.Eval} computes, a mux with a constant select is the
    selected arm (and a mux of one term twice is that term), and
    [And]/[Or] with an absorbing constant is that constant, with a
    neutral one the other operand; a read at a constant address is the
    entry it selects.  Nothing else is simplified.

    {!blast} turns a term into the BDD vector of the same function,
    through {!Equiv.Blast}, once per term: the vector is kept in the
    term.  A constant blasts to terminal nodes only, so only blasting
    a term with a variable in it builds BDD nodes.

    A table is mutable and not thread-safe: use one per computation
    (one per {!Symsim.check} call). *)

type table

type t
(** A term of one table. *)

val table : Hw.Bdd.man -> table
(** An empty table whose terms blast in this manager. *)

val const : table -> Hw.Bitvec.t -> t

val var : table -> Hw.Bdd.t array -> t
(** A fresh variable term whose blast is the given vector (LSB first;
    its length is the width), distinct from every other term. *)

val width : t -> int

val value : t -> Hw.Bitvec.t option
(** [Some v] iff the term is the constant [v]. *)

val binop : table -> Hw.Expr.binop -> t -> t -> t
val mux : table -> t -> t -> t -> t
(** [mux tb sel a b]: [a] where the 1-bit [sel] holds, else [b]. *)

val selected : Hw.Bitvec.t -> int -> bool
(** [selected addr i]: whether the address selects entry [i] of a
    register file, i.e. equals [i]'s low bits (an address narrower than
    the file selects every entry that agrees with it there). *)

val read : table -> t array -> t -> t
(** [read tb entries addr]: a read of the register file whose entries
    are [entries]: the last entry [addr] selects, or entry 0 where it
    selects none of the others.  A constant address returns that entry;
    a symbolic one makes a read term, equal to any other read of the
    same entries at the same address, whose blast is the mux chain over
    the entries the address can select.  The term keeps [entries]:
    never mutate the array afterwards. *)

val of_expr :
  table ->
  input:(string -> int -> t) ->
  file:(string -> t -> int -> t) ->
  Hw.Expr.t ->
  t
(** The term of an expression: [input name width] resolves an
    [Input]; [file name addr data_width] resolves a [File_read] whose
    address is the term [addr].  The constructors check operand widths
    by {!Hw.Expr.width}'s rules.
    @raise Hw.Expr.Ill_typed on a mismatch. *)

val blast : table -> t -> Hw.Bdd.t array
(** The BDD vector (LSB first) of the term's function, built on the
    first call and kept. *)
