type vec_op = Vo_none | Vo_add | Vo_sub | Vo_mul_signed | Vo_mul_unsigned
[@@deriving show { with_path = false }]

type red_op = Ro_sum | Ro_sum_abs | Ro_sum_square | Ro_sum_compare
[@@deriving show { with_path = false }]

type digital_op =
  | Do_none
  | Do_sigmoid
  | Do_relu
  | Do_min
  | Do_max
  | Do_threshold
  | Do_mean
[@@deriving eq, show { with_path = false }]

type t = {
  name : string;
  w : string;
  x : string;
  output : string;
  vec_op : vec_op;
  red_op : red_op;
  digital_op : digital_op;
  vector_len : int;
  loop_iterations : int;
  threshold : float;
  swing : int;
}

let make ?(name = "task") ?(threshold = 0.0) ?(swing = 7) ~w ~x ~output ~vec_op
    ~red_op ~digital_op ~vector_len ~loop_iterations () =
  if vector_len < 1 then invalid_arg "Abstract_task: vector_len must be >= 1";
  if loop_iterations < 1 then
    invalid_arg "Abstract_task: loop_iterations must be >= 1";
  if swing < 0 || swing > 7 then
    invalid_arg "Abstract_task: swing must be in [0, 7]";
  {
    name;
    w;
    x;
    output;
    vec_op;
    red_op;
    digital_op;
    vector_len;
    loop_iterations;
    threshold;
    swing;
  }

let with_swing t swing =
  if swing < 0 || swing > 7 then
    invalid_arg "Abstract_task.with_swing: swing must be in [0, 7]";
  { t with swing }

let uses_x t =
  match t.vec_op with
  | Vo_none -> false
  | Vo_add | Vo_sub | Vo_mul_signed | Vo_mul_unsigned -> true
