(** The 28-bit OP_PARAM field of a Task (paper Fig. 5(b)).

    Bit layout (MSB first):
    {v
      [27:25] SWING      ΔV_BL swing code, 000 = 5 mV/LSB .. 111 = 30 mV/LSB
      [24:23] ACC_NUM    number of operands accumulated by Class-4 accumulate
      [22:14] W_ADDR     bit-cell array (word-row) address of W for Class-1
      [13:11] X_ADDR1    X source address for the fused Class-1 add/subtract
      [10:8]  X_ADDR2    X-REG address of the Class-2 multiply operand
      [7:6]   X_PRD      X addresses circulate from 0 to X_PRD - 1
      [5:4]   DES        Class-4 output destination
      [3:0]   THRES_VAL  reference value for the Class-4 threshold op
    v} *)

type t = {
  swing : int;  (** 0..7 *)
  acc_num : int;  (** 0..3; accumulate pops [acc_num + 1] operands *)
  w_addr : int;  (** 0..511 word-row address *)
  x_addr1 : int;  (** 0..7 *)
  x_addr2 : int;  (** 0..7 *)
  x_prd : int;  (** 0..3; period of X address circulation is [x_prd + 1] *)
  des : Opcode.destination;
  thres_val : int;  (** 0..15 *)
}

val equal : t -> t -> bool

(** Default parameters: maximum swing (111), everything else zero,
    destination the output buffer. *)
val default : t

(** [validate t] is [Ok t] when every field is within its bit-field range,
    and [Error d] (diagnostic code [P-TSK-001]) otherwise. *)
val validate : t -> (t, Promise_core.Diag.t) result

(** [to_bits t] packs [t] into the low 28 bits of an int.
    Raises [Invalid_argument] if [validate] fails. *)
val to_bits : t -> int

(** [of_bits bits] unpacks the low 28 bits. *)
val of_bits : int -> t

(** [x_addr_at t ~base ~iteration] is the circulating X address for a given
    Task [iteration]: [(base + iteration) mod (x_prd + 1)] (paper §3.3,
    "X_ADDR1 & 2 circulate from 0 to X_PRD - 1"). *)
val x_addr_at : t -> base:int -> iteration:int -> int
