(** Per-operation stage delays (Table 3) and the analog pipeline clock.

    All four pipeline stages share one clock period TP which must
    accommodate the worst-case delay of the operations a program actually
    uses: TP = max(T_S1, T_S2, T_S4) over those operations (paper §3.2,
    Fig. 4). The Class-3 ADC does not bound TP: its 138-cycle latency is
    hidden by the eight pipelined ADC units, contributing to pipeline fill
    only (DESIGN.md, "Modeling decisions"). *)

val class1_delay : Promise_isa.Opcode.class1 -> int
val class2_delay : Promise_isa.Opcode.class2 -> int

val class3_latency : Promise_isa.Opcode.class3 -> int
(** 138 cycles for ADC, 0 for none. *)

val class4_delay : Promise_isa.Opcode.class4 -> int

(** [task_tp task] — the pipeline clock period (cycles) the task needs:
    max over the Class-1/2/4 delays of its operations. At least 1. *)
val task_tp : Promise_isa.Task.t -> int

(** [program_tp program] — per-program TP: max {!task_tp} over the tasks.
    This is the clock a PROMISE configured for exactly this program runs
    at. *)
val program_tp : Promise_isa.Program.t -> int

(** [worst_case_tp ()] — TP when the pipeline must accommodate {e every}
    ISA operation (the §3.2 "operational diversity" cost; the ablation
    bench compares this to per-program TP). *)
val worst_case_tp : unit -> int

(** [fill_cycles task] — cycles for the first result to emerge: the sum
    of the stage latencies the task uses (including ADC latency). *)
val fill_cycles : Promise_isa.Task.t -> int

(** [task_cycles task] — total cycles for a task:
    [fill_cycles + (iterations - 1) * task_tp]. *)
val task_cycles : Promise_isa.Task.t -> int

(** [task_steady_cycles task] — steady-state duration with the pipeline
    fill amortized across back-to-back decisions:
    [iterations * task_tp]. The paper's throughput model (f = 128/TP)
    is steady-state. *)
val task_steady_cycles : Promise_isa.Task.t -> int

(** {2 Test hooks} *)

module For_tests : sig
  (** [unpipelined_iteration_cycles task] — latency of one iteration with
      no pipelining: the sum of stage delays. The original compute-memory
      (CM) baseline runs at this rate. *)
  val unpipelined_iteration_cycles : Promise_isa.Task.t -> int

  (** [throughput_ops_per_ns task] — steady-state element operations per ns
      per bank: [lanes / (task_tp * cycle_ns)] (paper: f = 128 / TP). *)
  val throughput_ops_per_ns : Promise_isa.Task.t -> float
end
