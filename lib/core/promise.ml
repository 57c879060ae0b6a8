(** PROMISE: a programmable mixed-signal ML accelerator — ISA, simulator,
    energy models, compiler, and benchmarks (Srivastava et al.,
    ISCA 2018), reproduced in OCaml.

    This module is the public umbrella API: it re-exports every layer
    and offers a few one-call entry points. See README.md for a tour.

    {2 Layers}
    - {!Isa} — the Task instruction set: opcodes, encoding, assembly.
    - {!Analog} — swing/noise/leakage/ADC behavioral models.
    - {!Arch} — the bank/machine functional + cycle simulator.
    - {!Energy} — Table-3 energy model and the CONV/CM/SoA baselines.
    - {!Ir} — SSA, the tensor DSL, AbstractTasks and the PROMISE pass.
    - {!Analysis} — the lint stack: whole-program ISA verification,
      SSA validation, interval overflow analysis (promise-lint).
    - {!Compiler} — backend, precision analysis, swing optimization,
      host runtime.
    - {!Ml} — reference ML algorithms, training, synthetic datasets.
    - {!Benchmarks} — the nine Table-2 workloads, end to end. *)

module Isa = struct
  module Opcode = Promise_isa.Opcode
  module Op_param = Promise_isa.Op_param
  module Task = Promise_isa.Task
  module Encode = Promise_isa.Encode
  module Asm = Promise_isa.Asm
  module Program = Promise_isa.Program
  module Extensions = Promise_isa.Extensions
end

module Analog = struct
  module Rng = Promise_analog.Rng
  module Swing = Promise_analog.Swing
  module Noise = Promise_analog.Noise
  module Lut = Promise_analog.Lut
  module Leakage = Promise_analog.Leakage
  module Adc = Promise_analog.Adc
  module Pwm = Promise_analog.Pwm
end

module Arch = struct
  module Params = Promise_arch.Params
  module Timing = Promise_arch.Timing
  module Bitcell_array = Promise_arch.Bitcell_array
  module Xreg = Promise_arch.Xreg
  module Th_unit = Promise_arch.Th_unit
  module Bank = Promise_arch.Bank
  module Crossbank = Promise_arch.Crossbank
  module Layout = Promise_arch.Layout
  module Machine = Promise_arch.Machine
  module Kernel = Promise_arch.Kernel
  module Trace = Promise_arch.Trace
  module Scheduler = Promise_arch.Scheduler
  module Faults = Promise_arch.Faults
  module Selftest = Promise_arch.Selftest
  module Ctrl = Promise_arch.Ctrl
end

module Energy = struct
  module Tables = Promise_energy.Tables
  module Model = Promise_energy.Model
  module Conv = Promise_energy.Conv
  module Cm = Promise_energy.Cm
  module Scaling = Promise_energy.Scaling
  module Soa = Promise_energy.Soa
  module Dma = Promise_energy.Dma
end

module Ir = struct
  module Ssa = Promise_ir.Ssa
  module Dsl = Promise_ir.Dsl
  module Abstract_task = Promise_ir.Abstract_task
  module Graph = Promise_ir.Graph
  module Pattern = Promise_ir.Pattern
  module Sexp_frontend = Promise_ir.Sexp_frontend
end

module Analysis = struct
  module Dataflow = Promise_analysis.Dataflow
  module Ssa_check = Promise_analysis.Ssa_check
  module Isa_check = Promise_analysis.Isa_check
  module Interval = Promise_analysis.Interval
  module Liveness = Promise_analysis.Liveness
  module Regpressure = Promise_analysis.Regpressure
  module Timing_check = Promise_analysis.Timing_check
  module Lint = Promise_analysis.Driver
end

module Compiler = struct
  module Lower = Promise_compiler.Lower
  module Precision = Promise_compiler.Precision
  module Swing_opt = Promise_compiler.Swing_opt
  module Runtime = Promise_compiler.Runtime
  module Allocator = Promise_compiler.Allocator
  module Pipeline = Promise_compiler.Pipeline
end

module Ml = struct
  module Linalg = Promise_ml.Linalg
  module Fixed_point = Promise_ml.Fixed_point
  module Dataset = Promise_ml.Dataset
  module Mlp = Promise_ml.Mlp
  module Svm = Promise_ml.Svm
  module Pca = Promise_ml.Pca
  module Knn = Promise_ml.Knn
  module Template = Promise_ml.Template
  module Matched_filter = Promise_ml.Matched_filter
  module Linreg = Promise_ml.Linreg
  module Kmeans = Promise_ml.Kmeans
  module Metrics = Promise_ml.Metrics
end

module Error = Promise_core.Error
module Diag = Promise_core.Diag
module Pool = Promise_core.Pool
module Queue_bounded = Promise_core.Queue_bounded
module Histogram = Promise_core.Histogram
module Quant = Promise_core.Quant
module Clock = Promise_core.Clock
module Retry = Promise_core.Retry
module Incident = Promise_core.Incident
module Checkpoint = Promise_core.Checkpoint
module Supervisor = Promise_core.Supervisor
module Ipc = Promise_core.Ipc
module Fleet = Promise_core.Fleet
module Workload = Promise_core.Workload
module Validate = Promise_core.Validate
module Failpoint = Promise_core.Failpoint
module Benchmarks = Benchmarks
module Report = Report
module Validation = Validation
module Campaign = Campaign
module Serve = Serve

(** [compile kernel] — DSL → SSA → PROMISE pass → IR graph. *)
let compile = Promise_compiler.Pipeline.compile

(** [compile_to_binary kernel] — all the way to encoded Tasks. *)
let compile_to_binary = Promise_compiler.Pipeline.compile_to_binary

(** [run ?machine kernel bindings] — compile and execute. *)
let run = Promise_compiler.Pipeline.run

(** [energy_report program] — Eq. (6) breakdown of an ISA program. *)
let energy_report = Promise_energy.Model.program_energy

(** [run_batch ?machine kernel bindings ~batch] — compile and execute
    [batch] decisions (bit-identical to [batch] sequential {!run}s). *)
let run_batch = Promise_compiler.Pipeline.run_batch

(** [check_env ()] — validate the three [PROMISE_*] environment
    variables library code reads ([PROMISE_JOBS] in [Pool],
    [PROMISE_KERNEL_MODE] and [PROMISE_BATCH] in [Arch.Machine]), with
    typed errors instead of the silent fallbacks those readers take: a
    typo'd [PROMISE_JOBS=fuor] fails loudly at CLI startup rather than
    quietly running at the default width. Every other setting is a CLI
    flag. The kernel-mode value list mirrors
    [Arch.Machine.default_kernel_mode]; the batch range mirrors
    [Arch.Machine.default_batch]. *)
let check_env () =
  Promise_core.Validate.all
    [
      Result.map ignore
        (Promise_core.Validate.env_int ~name:"PROMISE_JOBS" ~min:1 ~max:64);
      Result.map ignore
        (Promise_core.Validate.env_enum ~name:"PROMISE_KERNEL_MODE"
           ~values:[ "fused"; "reference"; "ref"; "scalar" ]);
      Result.map ignore
        (Promise_core.Validate.env_int ~name:"PROMISE_BATCH" ~min:1 ~max:4096);
    ]

(** [version]. *)
let version = "1.0.0"
