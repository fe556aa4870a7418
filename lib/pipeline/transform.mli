(** The transformation tool (paper §§3–5).

    [run] takes a prepared sequential machine, the designer's
    forwarding hints and speculation declarations, and produces the
    pipelined machine: the original stage functions with every
    non-local operand read replaced by a synthesized forwarding network
    [g_k_R], plus the hit/valid/data-hazard signal definitions the
    stall engine consumes, plus the pipelined valid bits [Qv.k] as new
    registers.

    {2 Synthesized signal names}

    Synthesized combinational signals live in a ["$"]-prefixed
    namespace so they cannot collide with designer registers:

    - ["$full_k"], ["$ext_k"] — free inputs bound by the simulator
      (pipeline full bits and external stall conditions);
    - ["$hit_<label>_<j>"] — operand [label] hits stage [j] (§4.1);
    - ["$cand_<label>_<j>"] — the value forwarded from stage [j];
    - ["$valid_<chain>_<j>"] — the §4.1 valid signal
      [Q_valid^j = Qv.j ∨ f_j_Qwe];
    - ["$g_<label>"] — the generated operand input [g_k_R];
    - ["$dhaz_<label>"] — per-operand data hazard;
    - ["$dhaz_stage_<k>"] — the stage's [dhaz_k] (OR over operands);
    - ["$Qv_<chain>.<j>"] — synthesized valid-bit {e registers}.

    Signal definitions are emitted in dependency order: a definition
    only references registers, free inputs, and earlier signals. *)

(** Where a forwarding source takes its value from. *)
type source_kind =
  | From_writer          (** stage [w] itself: the value at the input
                             of register [R] ([top = w ⟹ g = f_w_R]) *)
  | From_chain of string (** the designated forwarding register
                             instance relevant at this stage *)
  | No_source            (** no forwarding register designated: a hit
                             here always raises a data hazard *)

type source = {
  src_stage : int;
  src_kind : source_kind;
  hit_signal : string;
  cand_signal : string option;
  has_addr_compare : bool;  (** an equality tester was generated *)
  conservative : bool;
      (** the precomputed write enable / address could not be derived,
          so the hit over-approximates (correct but slower) *)
}

type rule = {
  rule_label : string;
  consumer_stage : int;
  operand_reg : string;
  operand_port : int option;  (** file read port index, [None] for scalars *)
  writer_stage : int;
  g_signal : string option;   (** [None] in interlock-only mode *)
  g_default : Hw.Expr.t;
      (** what the operand reads when no hit is active: the
          architectural register (file read at the rewritten address);
          kept so the priority property can be restated and checked
          symbolically against the generated network *)
  dhaz_signal : string;
  sources : source list;      (** ascending stage order, ending at [w] *)
}

type t = {
  base : Machine.Spec.t;
  machine : Machine.Spec.t;
      (** the pipelined data paths: original registers plus [Qv]
          registers; stage writes with forwarding spliced in *)
  options : Fwd_spec.options;
  signals : (string * Hw.Expr.t) list;  (** definition order *)
  stage_dhaz : string array;  (** per stage, the [dhaz_k] signal name *)
  speculations : Fwd_spec.speculation list;  (** operands rewritten *)
  rules : rule list;
}

exception Transform_error of string

val run :
  ?options:Fwd_spec.options ->
  ?hints:Fwd_spec.hint list ->
  ?speculations:Fwd_spec.speculation list ->
  Machine.Spec.t ->
  t
(** @raise Transform_error when the machine is not well-formed
    ({!Machine.Validate.run}) or a hint is inconsistent. *)

val digest : t -> string
(** Structural content address: both machines (registers, stage
    writes, initial values), the synthesized signals, hazard names and
    speculations, rendered and MD5-digested.  Equal digests mean the
    evaluation engines compile behaviourally identical plans, so
    session caches can key on it and survive callers rebuilding a
    structurally identical transform.  File initial values are folded
    through a rolling hash, so digesting costs far less than one
    state reset. *)

val full_signal : int -> string
val ext_signal : int -> string

val find_rule : t -> stage:int -> operand:Fwd_spec.operand_sel -> rule option
