(** AbstractTask: the node type of the PROMISE compiler IR (paper §4.2).

    An AbstractTask abstracts a hardware Task: it does not yet know
    whether its vector operation runs in Class-1 (add/subtract fused into
    the analog read) or Class-2 (multiply), nor any bank geometry — that
    is late-stage code generation (lib/compiler, Lower). Fields F1–F10 of
    the paper map to the record below; [swing] starts at the maximum
    (0b111) and is tuned by the energy-optimization pass. *)

(** F4 — element-wise vector operation between a row of W and X. *)
type vec_op = Vo_none | Vo_add | Vo_sub | Vo_mul_signed | Vo_mul_unsigned

(** F5 — reduction applied to the vecOp output. [Ro_sum_abs] is the
    paper's "L1 – absolute", [Ro_sum_square] "L2 – square". *)
type red_op = Ro_sum | Ro_sum_abs | Ro_sum_square | Ro_sum_compare

(** F6 — unary digital operation on the reduction output (the decision
    function f(), or a cross-iteration min/max fused from an
    [argmin]/[argmax] library call). *)
type digital_op =
  | Do_none
  | Do_sigmoid
  | Do_relu
  | Do_min
  | Do_max
  | Do_threshold
  | Do_mean

type t = {
  name : string;
  w : string;  (** F1 — 2D weight array *)
  x : string;  (** F2 — 1D input array ("" when [vec_op = Vo_none]) *)
  output : string;  (** F3 — 1D output array *)
  vec_op : vec_op;
  red_op : red_op;
  digital_op : digital_op;
  vector_len : int;  (** F7 *)
  loop_iterations : int;  (** F8 *)
  threshold : float;  (** F9 — used by [Do_threshold] *)
  swing : int;  (** F10 — 0..7, initialized to 7 *)
}

val equal_digital_op : digital_op -> digital_op -> bool
val pp_vec_op : Format.formatter -> vec_op -> unit
val pp_red_op : Format.formatter -> red_op -> unit
val pp_digital_op : Format.formatter -> digital_op -> unit

(** [make] with [swing] defaulted to 7, [threshold] to 0. Validates
    positivity of the sizes and the swing range. *)
val make :
  ?name:string ->
  ?threshold:float ->
  ?swing:int ->
  w:string ->
  x:string ->
  output:string ->
  vec_op:vec_op ->
  red_op:red_op ->
  digital_op:digital_op ->
  vector_len:int ->
  loop_iterations:int ->
  unit ->
  t

val with_swing : t -> int -> t

(** [uses_x t] — the task consumes an X operand. *)
val uses_x : t -> bool
