(** Backend code generation: AbstractTask → PROMISE Task (paper §4.3).

    The backend decides where the vecOp executes — Class-1 for fused
    add/subtract, Class-2 for multiplies (aREAD in Class-1) — maps the
    reduction and digital ops onto Class-2/4 opcodes, and computes the
    runtime-dependent fields (RPT_NUM, X_PRD, MULTI_BANK, addresses)
    from the {!Promise_arch.Layout.plan}. *)

open Promise_isa

(** [lower_chunk ?terminal at ~plan ~chunk ~w_base ~xreg_base] — the ISA
    Task for one row chunk of the plan. [rpt_num] covers
    [chunk_rows × segments - 1] iterations; [acc_num] groups the
    segments; [x_prd] circulates the X addresses. [terminal] (default
    false) marks a task with no consumer: its sigmoid/ReLU results are
    the program's outputs and route to the output buffer at full
    digital precision instead of being re-quantized into X-REG. *)
val lower_chunk :
  ?terminal:bool ->
  Promise_ir.Abstract_task.t ->
  plan:Promise_arch.Layout.plan ->
  chunk:int ->
  w_base:int ->
  xreg_base:int ->
  (Task.t, Promise_core.Error.t) result

(** [program_of_graph g] — lower every task of an IR graph (in
    topological order) into a single ISA program, named after the graph
    tasks. Uses each task's own layout plan. *)
val program_of_graph :
  Promise_ir.Graph.t -> (Program.t, Promise_core.Error.t) result

(** {2 Test hooks} *)

module For_tests : sig
  (** [classes_of task] — the (Class-1, Class-2, Class-3, Class-4)
      opcodes for an AbstractTask, or [Error] for an unmappable
      combination (e.g. multiply composed with an absolute reduction). *)
  val classes_of :
    Promise_ir.Abstract_task.t ->
    ( Opcode.class1 * Opcode.class2 * Opcode.class3 * Opcode.class4,
      Promise_core.Error.t )
    result

  (** [threshold_code value] — quantize a normalized threshold in [-1, 1]
      to the 4-bit THRES_VAL field. *)
  val threshold_code : float -> int

  (** [lower ?terminal at ~plan] — all row chunks (w_base 0, xreg 0). *)
  val lower :
    ?terminal:bool ->
    Promise_ir.Abstract_task.t ->
    plan:Promise_arch.Layout.plan ->
    (Task.t list, Promise_core.Error.t) result
end
