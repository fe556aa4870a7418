(** Symbolic equivalence of combinational expressions.

    Bit-blasts expressions into {!Hw.Bdd} vectors and compares them
    canonically: equality holds for {e all} input valuations, not just
    sampled ones — the BDD-based checking of the related work the paper
    cites ([4] Bryant; [17] McMillan).  Used to prove the selection
    networks interchangeable (chain ≡ tree ≡ bus for every hit
    pattern), the simplifier sound on concrete expressions, and the
    HDL-exported stall engine equal to the executable one.

    Register-file reads are treated as uninterpreted: two reads of the
    same file whose address vectors are (symbolically) identical map to
    the same fresh variable vector; reads with differing addresses get
    independent vectors.  This is sound for equivalence (it
    under-approximates equality of reads, never over-approximates), and
    exact when both sides read files at syntactically corresponding
    addresses.

    Multiplication blasts via shift-and-add; keep operand widths modest
    (≤ 16 bits) or BDD sizes explode. *)

type counterexample = {
  cex_inputs : (string * int) list;  (** one value per named input *)
  cex_left : Hw.Bitvec.t;
  cex_right : Hw.Bitvec.t;
}

type result =
  | Equivalent of { variables : int; bdd_nodes : int }
  | Different of counterexample
  | Width_mismatch of int * int

val check : Hw.Expr.t -> Hw.Expr.t -> result
(** Both expressions see the same variable for the same input name (at
    the same width; differing widths for one name are an error). *)

val check_exn : Hw.Expr.t -> Hw.Expr.t -> unit
(** @raise Failure with a description on any non-[Equivalent] result. *)

val tautology : Hw.Expr.t -> bool
(** A 1-bit expression that is true under every valuation. *)

val pp_result : Format.formatter -> result -> unit

(** The bit-blaster one operator at a time: each function maps its
    operands' vectors (LSB first) to the result's, the step the
    checker takes at each expression node.  The symbolic co-simulator
    ({!Symsim}, through {!Term}) blasts its terms with these, so there
    is one bit-blaster. *)
module Blast : sig
  val const : Hw.Bitvec.t -> Hw.Bdd.t array
  val unop : Hw.Bdd.man -> Hw.Expr.unop -> Hw.Bdd.t array -> Hw.Bdd.t array

  val binop :
    Hw.Bdd.man -> Hw.Expr.binop -> Hw.Bdd.t array -> Hw.Bdd.t array ->
    Hw.Bdd.t array
  (** A shift's amount may have any width: its bit [j] shifts by
      [2^j], saturating at the operand's width. *)

  val mux :
    Hw.Bdd.man -> Hw.Bdd.t -> Hw.Bdd.t array -> Hw.Bdd.t array ->
    Hw.Bdd.t array
  (** [mux man sel a b]: [a] where [sel] holds, else [b]. *)

  val concat : hi:Hw.Bdd.t array -> lo:Hw.Bdd.t array -> Hw.Bdd.t array
  val slice : Hw.Bdd.t array -> hi:int -> lo:int -> Hw.Bdd.t array
  val zext : Hw.Bdd.t array -> int -> Hw.Bdd.t array
  val sext : Hw.Bdd.t array -> int -> Hw.Bdd.t array
end
