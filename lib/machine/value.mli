(** Runtime values of machine registers.

    A register holds either a scalar bit vector or, for register files
    (paper §2, figure 1), an array of [2^addr_bits] entries. *)

type t =
  | Scalar of Hw.Bitvec.t
  | File of Hw.Bitvec.t array  (** index = unsigned address *)

val scalar : Hw.Bitvec.t -> t

val zero_scalar : width:int -> t

val zero_file : width:int -> addr_bits:int -> t

val file_of_list : width:int -> addr_bits:int -> Hw.Bitvec.t list -> t
(** Entries beyond the list are zero.
    @raise Invalid_argument if the list is too long or widths differ. *)

val copy : t -> t
(** Deep copy (snapshot isolation for [File]). *)

val equal : t -> t -> bool

val read_scalar : t -> Hw.Bitvec.t
(** @raise Invalid_argument on a [File]. *)

val read_file : t -> Hw.Bitvec.t -> Hw.Bitvec.t
(** [read_file v addr]. @raise Invalid_argument on a [Scalar]. *)

val write_file : t -> Hw.Bitvec.t -> Hw.Bitvec.t -> unit
(** [write_file v addr data] mutates the entry. *)

val read_entry : t -> int -> Hw.Bitvec.t
(** {!read_file} at a raw (unsigned) address: the compiled simulators'
    file readers. *)

val write_entry : t -> int -> Hw.Bitvec.t -> unit
(** {!write_file} at a raw address: the resolved commit path. *)

val pp : Format.formatter -> t -> unit
