(** The PROMISE energy / throughput model — paper Eq. (6):
    E_PROMISE = Σ_i E_Class,i + E_LEAK + E_CTRL.

    Evaluated over execution traces (what the machine actually did) or
    analytically over a program (what it will do). All energies in pJ. *)

(** Energy decomposition; [read] is the Class-1 (memory access) share —
    the Figure-11 "READ" bar — [compute] covers Class-2/3/4 and the
    cross-bank rail, [leak] and [ctrl] the per-cycle terms. *)
type breakdown = {
  read : float;
  compute : float;
  leak : float;
  ctrl : float;
}

val total : breakdown -> float
val zero : breakdown
val add : breakdown -> breakdown -> breakdown

(** [trace_energy tr] — Eq. (6) over a whole trace. *)
val trace_energy : Promise_arch.Trace.t -> breakdown

(** [program_energy p] — analytic Eq. (6) over a program. *)
val program_energy : Promise_isa.Program.t -> breakdown

(** [program_steady_cycles p] — Σ steady-state task cycles (pipeline
    fill amortized across back-to-back decisions, the paper's
    throughput model). *)
val program_steady_cycles : Promise_isa.Program.t -> int

(** [task_energy_steady t] / [program_energy_steady p] — Eq. (6) with
    leakage/CTRL charged over the steady-state cycles. *)
val task_energy_steady : Promise_isa.Task.t -> breakdown

val program_energy_steady : Promise_isa.Program.t -> breakdown

(** [program_steady_cycles_at_worst_case_tp p] — steady cycles when the
    clock accommodates every ISA op (§3.2 ablation). *)
val program_steady_cycles_at_worst_case_tp : Promise_isa.Program.t -> int

(** {2 Test hooks} *)

module For_tests : sig
  (** [energy_delay_product b ~cycles] — EDP in pJ·ns. *)
  val energy_delay_product : breakdown -> cycles:int -> float

  (** [task_energy task] — analytic energy of a task from its static
      fields (iterations × per-op costs), assuming one ADC conversion per
      iteration per bank when the task digitizes. Matches the energy of
      its trace record on aggregating tasks. *)
  val task_energy : Promise_isa.Task.t -> breakdown
end
