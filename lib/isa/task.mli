(** A PROMISE Task — the wide-word macro instruction (paper Fig. 5(a)).

    A Task bundles one operation for each of the four pipelined stages
    (Class-1 .. Class-4) together with the operating parameters
    ([OP_PARAM]), the loop-control field [RPT_NUM] and the multi-bank
    control field [MULTI_BANK]. Unlike a VLIW word, the four operations
    execute {e sequentially} through the analog pipeline. *)

type t = {
  op_param : Op_param.t;
  rpt_num : int;  (** 0..127 — the Task body executes [rpt_num + 1] times *)
  multi_bank : int;  (** 0..3 — the Task runs on [2 ** multi_bank] banks *)
  class1 : Opcode.class1;
  class2 : Opcode.class2;
  class3 : Opcode.class3;
  class4 : Opcode.class4;
}

val equal : t -> t -> bool

(** Number of times the Task body executes ([rpt_num + 1]). *)
val iterations : t -> int

(** Number of banks the Task is distributed over ([2 ** multi_bank]). *)
val banks : t -> int

(** A no-op Task skeleton: all Classes none-like, default OP_PARAM.
    Class-4 defaults to [C4_accumulate] with destination [Des_output_buffer]. *)
val nop : t

(** [make ?op_param ?rpt_num ?multi_bank ~class1 ~class2 ~class3 ~class4 ()]
    builds and {!validate}s a task. Raises [Invalid_argument] on an illegal
    composition. *)
val make :
  ?op_param:Op_param.t ->
  ?rpt_num:int ->
  ?multi_bank:int ->
  class1:Opcode.class1 ->
  class2:Opcode.class2 ->
  class3:Opcode.class3 ->
  class4:Opcode.class4 ->
  unit ->
  t

(** Static validation of the constraints of paper §3.2/§3.3:
    - field ranges (including [OP_PARAM]);
    - an analog Class-2 operation requires an analog Class-1 producer
      (aREAD / aSUBT / aADD);
    - a Class-2 multiply cannot follow a fused Class-1 add/subtract
      (the fused value already consumed the analog operand path);
    - aggregation ([avd = true]) or any aSD op requires Class-3 ADC so the
      result can leave the analog domain (noise must not accumulate,
      §3.1);
    - Class-4 [threshold] uses [THRES_VAL]; [accumulate] uses [ACC_NUM];
    - digital [read]/[write] Class-1 ops admit no analog Class-2/3 stage.

    Errors carry stable diagnostic codes: [P-TSK-001] for OP_PARAM
    field ranges, [P-TSK-002] for [RPT_NUM]/[MULTI_BANK] ranges, and
    [P-TSK-003] for illegal class compositions. *)
val validate : t -> (t, Promise_core.Diag.t) result

(** [uses_adc t] — the Task digitizes its aggregate each iteration. *)
val uses_adc : t -> bool

(** All distinct (class1, class2, class3, class4) compositions accepted by
    {!validate}. The paper notes there are "more than 1000 compositions";
    this enumerates them for tests. *)
val legal_compositions :
  unit -> (Opcode.class1 * Opcode.class2 * Opcode.class3 * Opcode.class4) list
