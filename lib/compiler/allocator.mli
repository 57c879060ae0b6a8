(** Bank allocation for concurrent Task execution (paper Fig. 2(b)).

    Each PAGE has a local CTRL, so Tasks with no data dependence can run
    on disjoint bank groups simultaneously — that is how the paper's
    36-bank DNN reaches 558 K decisions/s: every layer's row chunks run
    in parallel and the layers pipeline across the decision stream.
    This module formalizes that resource assignment and its makespan,
    replacing per-benchmark ad-hoc arithmetic.

    A program is a list of (task, dependence-level) pairs: tasks on the
    same level are independent (row chunks of one layer); levels are
    sequential dataflow (layers). *)

type assignment = {
  task : Promise_isa.Task.t;
  level : int;
  first_bank : int;  (** first bank of the group this task occupies *)
  start_cycle : int;
  finish_cycle : int;
}

type plan = {
  assignments : assignment list;
  banks_used : int;  (** peak simultaneous banks *)
  makespan : int;  (** cycles for one whole pass (all levels) *)
  pipelined_interval : int;
      (** sustained per-decision interval when successive decisions
          pipeline across levels: the slowest level's span *)
}

(** [of_program ~total_banks ~levels program] — attach levels to a
    lowered program (e.g. the chunk counts per layer from the
    compiler) and plan it. [levels] lists how many consecutive tasks
    belong to each level; their sum must equal the program length. *)
val of_program :
  ?excluded:int list ->
  total_banks:int ->
  levels:int list ->
  Promise_isa.Program.t ->
  (plan, string) result

(** {2 Test hooks} *)

module For_tests : sig
  (** [plan ?excluded ~total_banks tasks] — greedy left-to-right packing
      of each level's tasks onto bank groups; a level's tasks that do not
      fit simultaneously serialize in waves. [excluded] lists faulted
      banks no task may occupy (graceful degradation: placement skips
      over them). [Error] when a single task needs more contiguous
      healthy banks than the machine has. Tasks use their steady-state
      duration ({!Promise_arch.Timing.task_steady_cycles}). *)
  val plan :
    ?excluded:int list ->
    total_banks:int ->
    (Promise_isa.Task.t * int) list ->
    (plan, string) result
end
