(** Operation codes of the four PROMISE instruction Classes (paper Fig. 5(c)).

    Class-1 selects the memory stage operation (S1, [aREAD] and friends),
    Class-2 the analog scalar-distance operation (S2, [aSD]) together with
    the aggregation flag (S3 input, [aVD]), Class-3 whether the ADC fires,
    and Class-4 the digital thresholding ([TH]) operation. *)

(** Class-1 memory operations (3-bit opcode). *)
type class1 =
  | C1_none        (** 000 — no memory operation *)
  | C1_write       (** 001 — digital write to [W_ADDR] *)
  | C1_read        (** 010 — digital read from [W_ADDR] *)
  | C1_aread       (** 011 — analog read from [W_ADDR] *)
  | C1_asubt       (** 100 — fused analog read + element-wise subtract of X *)
  | C1_aadd        (** 101 — fused analog read + element-wise add of X *)

(** aSD scalar-distance operations (upper 3 bits of the Class-2 opcode). *)
type asd =
  | Asd_none        (** 000 — pass-through *)
  | Asd_compare     (** 001 — scalar comparison *)
  | Asd_absolute    (** 010 — absolute value *)
  | Asd_square      (** 011 — square *)
  | Asd_sign_mult   (** 100 — signed multiply with X-REG operand *)
  | Asd_unsign_mult (** 101 — unsigned multiply with X-REG operand *)

(** Class-2 = aSD operation + aVD aggregation flag (4-bit opcode). *)
type class2 = { asd : asd; avd : bool }

(** Class-3: whether the aggregated analog value is digitized (1 bit). *)
type class3 = C3_none | C3_adc

(** Class-4 TH (digital) operations (3-bit opcode). Code 110 is reserved. *)
type class4 =
  | C4_accumulate  (** 000 — accumulate [ACC_NUM] operands *)
  | C4_mean        (** 001 *)
  | C4_threshold   (** 010 — compare against [THRES_VAL] *)
  | C4_max         (** 011 *)
  | C4_min         (** 100 *)
  | C4_sigmoid     (** 101 — piece-wise linear sigmoid *)
  | C4_relu        (** 111 *)

(** Class-4 output destination (the [DES] field of OP_PARAM). *)
type destination =
  | Des_acc           (** 00 — accumulator input *)
  | Des_output_buffer (** 01 *)
  | Des_xreg          (** 10 *)
  | Des_write_buffer  (** 11 *)

val equal_class1 : class1 -> class1 -> bool
val equal_asd : asd -> asd -> bool
val equal_class2 : class2 -> class2 -> bool
val equal_class3 : class3 -> class3 -> bool
val equal_class4 : class4 -> class4 -> bool
val equal_destination : destination -> destination -> bool

(** {2 Numeric encodings (Fig. 5(c))} *)

val class1_to_code : class1 -> int
val class1_of_code : int -> class1 option

val class2_to_code : class2 -> int
(** 4 bits: aSD opcode in bits [3:1], aVD flag in bit 0. *)

val class2_of_code : int -> class2 option
val class3_to_code : class3 -> int
val class3_of_code : int -> class3 option
val class4_to_code : class4 -> int
val class4_of_code : int -> class4 option
val destination_to_code : destination -> int
val destination_of_code : int -> destination option

(** {2 Assembly mnemonics} *)

val class1_name : class1 -> string
val class1_of_name : string -> class1 option
val asd_name : asd -> string
val asd_of_name : string -> asd option
val class3_name : class3 -> string
val class3_of_name : string -> class3 option
val class4_name : class4 -> string
val class4_of_name : string -> class4 option
val destination_name : destination -> string
val destination_of_name : string -> destination option

val all_class1 : class1 list
val all_asd : asd list
val all_class2 : class2 list
val all_class3 : class3 list
val all_class4 : class4 list

(** [class1_reads_x c1] is true when the Class-1 operation consumes the X
    operand addressed by [X_ADDR1] (fused add/subtract). *)
val class1_reads_x : class1 -> bool

(** [asd_reads_x op] is true when the aSD operation consumes the X-REG
    operand addressed by [X_ADDR2] (signed/unsigned multiply). *)
val asd_reads_x : asd -> bool

(** [class1_is_analog c1] is true for aREAD / aSUBT / aADD. *)
val class1_is_analog : class1 -> bool
