(** A miniature language-neutral SSA IR (paper §4.3).

    The PROMISE pass operates on "a collection of SSA graphs, one per
    function"; this module is the OCaml stand-in for that LLVM layer.
    It carries exactly the constructs the Figure-7 pattern needs:
    typed array parameters, [getindex] (row of a matrix — a library
    call in the paper), element-wise vector operations, reductions
    (library calls), an optional scalar unary op, [getelementptr] +
    [store], integer induction arithmetic, and conditional branches. *)

type ty =
  | Scalar_int
  | Scalar_float
  | Vector of int  (** element count *)
  | Matrix of int * int  (** rows × cols *)
  | Ptr

val equal_ty : ty -> ty -> bool
val pp_ty : Format.formatter -> ty -> unit

(** An SSA value: virtual registers are defined once, by instruction
    index within the function. *)
type value = Vreg of int | Const_int of int | Const_float of float | Arg of string

val equal_value : value -> value -> bool
val pp_value : Format.formatter -> value -> unit

type vec_binop = Vadd | Vsub | Vmul  (** element-wise, on vectors *)
type vec_unop = Vabs | Vsquare | Vcompare  (** element-wise *)

(** Reductions over a vector — the paper's Julia library calls. *)
type reduce_op = Rsum

(** Scalar unary operations (decision functions f()). *)
type scalar_unop = Usigmoid | Urelu | Uneg | Uabs | Uthreshold of float

type int_binop = Iadd | Isub | Imul
type icmp_pred = Lt | Le | Gt | Ge | Eq | Ne

val pp_scalar_unop : Format.formatter -> scalar_unop -> unit

type label = string

type instr =
  | Getindex of { matrix : value; index : value }
      (** row [index] of [matrix] (Julia [getindex] on dimension 1) *)
  | Vec_binop of { op : vec_binop; lhs : value; rhs : value }
  | Vec_unop of { op : vec_unop; operand : value }
  | Reduce of { op : reduce_op; operand : value }
  | Scalar_unop of { op : scalar_unop; operand : value }
  | Int_binop of { op : int_binop; lhs : value; rhs : value }
  | Icmp of { pred : icmp_pred; lhs : value; rhs : value }
  | Getelementptr of { base : value; index : value }
  | Store of { src : value; ptr : value }
  | Load of { ptr : value }
  | Phi of { incoming : (label * value) list }
  | Call of { fn : string; args : value list }
      (** opaque library call (e.g. [argmin], [argmax], [majority_vote]
          applied to a computed output vector after the loop) *)

type terminator =
  | Br of label
  | Cond_br of { cond : value; if_true : label; if_false : label }
  | Ret of value option

(** A basic block: instructions are numbered globally within the
    function ([first_index] is the Vreg id of the first one). *)
type block = {
  label : label;
  first_index : int;
  instrs : instr array;
  terminator : terminator;
}

type func = {
  name : string;
  params : (string * ty) list;
  blocks : block list;  (** entry first *)
}

(** [param_ty f name] — declared type of parameter [name]. *)
val param_ty : func -> string -> ty option

(** [find_block f label]. *)
val find_block : func -> label -> block option

(** [instr_operands i] — the values an instruction reads (phi incoming
    values included, labels excluded). *)
val instr_operands : instr -> value list

(** [verify f] — structural checks: unique labels, every used Vreg is
    defined, branch targets exist, phi predecessors exist, registers
    defined once. The deeper dominance/phi/type validation lives in
    [Promise_analysis.Ssa_check]. *)
val verify : func -> (unit, string) result

(** {2 Test hooks} *)

module For_tests : sig
  module Builder : sig
    type t

    val create : name:string -> params:(string * ty) list -> t

    (** [block b label] — start (or switch back to) a block. Finishing
        the previous block without a terminator raises
        [Invalid_argument] tagged with diagnostic code [P-SSA-005] (the
        same code {!Promise_analysis.Ssa_check} reports). *)
    val block : t -> label -> unit

    (** [instr b i] — append; returns the new register as a value. *)
    val instr : t -> instr -> value

    val terminate : t -> terminator -> unit
    val finish : t -> func
  end

  (** [def_block f vreg] — the block defining a virtual register, with the
      instruction. *)
  val def_of : func -> int -> (block * instr) option
end
