(** The end-to-end compiler driver (paper Fig. 6): DSL ("Julia") →
    SSA → PROMISE pass (pattern match) → compiler IR → ISA code
    generation. The energy optimization between IR and code generation
    is {!Swing_opt}; execution is {!Runtime}. *)

(** Nothing is cached: {!compile} and {!codegen} run their stages on
    every call. *)
module Cache : sig
  val clear : unit -> unit
  (** A no-op, kept only for perfbench's compile-cold workload, which
      calls it before each compile. *)
end

(** [compile kernel] — frontend + PROMISE pass: the IR graph with all
    swings at maximum (0b111). *)
val compile :
  Promise_ir.Dsl.kernel -> (Promise_ir.Graph.t, Promise_core.Error.t) result

(** [codegen g] — the binary-encodable ISA program. *)
val codegen :
  Promise_ir.Graph.t -> (Promise_isa.Program.t, Promise_core.Error.t) result

(** {2 Lints}

    The per-input lints promise-lint runs, built from the pass lists
    of {!Promise_analysis.Driver}; every [--lint] flag runs the one for
    its input. *)

(** [lint_program ?pm ?stats ?adc_units ~target graph program] — the
    graph-plus-program lint: interval overflow analysis on [graph],
    Sakr feasibility ([P-OVF-003]) of [stats] at mismatch budget [pm]
    when both are given, and the Task list on [program]. *)
val lint_program :
  ?pm:float ->
  ?stats:Precision.stats ->
  ?adc_units:int ->
  target:string ->
  Promise_ir.Graph.t ->
  Promise_isa.Program.t ->
  Promise_analysis.Driver.report

(** [lint_kernel ?adc_units ~target kernel] — the kernel lint: the
    SSA list on the lowered kernel, then, if it found no error, the
    graph-plus-program lint (without [pm]) on the kernel's matched
    graph and lowered program. A lowering, pattern-match or codegen
    failure is an error diagnostic ([P-SSA-005], [P-OVF-004]). *)
val lint_kernel :
  ?adc_units:int ->
  target:string ->
  Promise_ir.Dsl.kernel ->
  Promise_analysis.Driver.report

(** A full compilation report. *)
type report = {
  graph : Promise_ir.Graph.t;
  program : Promise_isa.Program.t;
  binary : bytes;
  assembly : string;
  search_space : int;  (** 8^tasks *)
}

(** [compile_to_binary kernel] — DSL all the way to bytes. *)
val compile_to_binary :
  Promise_ir.Dsl.kernel -> (report, Promise_core.Error.t) result

(** [run ?machine ?recovery ?pool ?kernel_mode kernel bindings] —
    compile and execute; [recovery] enables the runtime's
    graceful-degradation path, [pool] parallelizes multi-bank task
    execution ({!Promise_arch.Machine.execute}), [kernel_mode] selects
    the fused or reference analog datapath. *)
val run :
  ?machine:Promise_arch.Machine.t ->
  ?recovery:Runtime.recovery ->
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:Promise_arch.Machine.kernel_mode ->
  Promise_ir.Dsl.kernel ->
  Runtime.bindings ->
  (Runtime.run_result, Promise_core.Error.t) result

(** [run_batch ?machine ?recovery ?pool ?kernel_mode kernel bindings
    ~batch] — compile and execute [batch] decisions
    ({!Runtime.run_batch}). Bit-identical to [batch] sequential {!run}
    calls on the same machine. *)
val run_batch :
  ?machine:Promise_arch.Machine.t ->
  ?recovery:Runtime.recovery ->
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:Promise_arch.Machine.kernel_mode ->
  Promise_ir.Dsl.kernel ->
  Runtime.bindings ->
  batch:int ->
  (Runtime.run_result array, Promise_core.Error.t) result
