(** The nine Table-2 benchmarks, wired end-to-end: synthetic data →
    model training (reference float implementation) → DSL kernel →
    compiled IR graph → PROMISE execution → accuracy, energy and
    throughput — plus the CONV-8b / CONV-OPT baseline workloads of §5.

    Every benchmark is built by one constructor from what is its own:
    its names, its DSL kernel, the CONV datapath size of one decision
    ([macs], [fetch_words]), its float reference accuracy, its CONV-OPT
    precision, its Sakr statistics (DNNs) and its score, the accuracy
    proxy it computes on a machine. The constructor derives the rest:
    the compiled [graph], the [per_decision_program], [abstract_tasks],
    [banks] and the CONV workload's banks. It also owns the one
    evaluation protocol behind [evaluate].

    Every benchmark is deterministic (seeded). Constructors are lazy
    and memoized per configuration: building a benchmark trains its
    model once. *)

module Graph = Promise_ir.Graph
module Program = Promise_isa.Program
module Model = Promise_energy.Model
module Conv = Promise_energy.Conv
module Bank = Promise_arch.Bank

type eval = {
  promise_accuracy : float;
  reference_accuracy : float;
  mismatch : float;  (** accuracy drop, clamped at 0 *)
}

type t = {
  name : string;
  short : string;  (** Figure-10/12 axis label *)
  abstract_tasks : int;
  graph : Graph.t;  (** swings at maximum *)
  per_decision_program : Program.t;
      (** ISA program for one inference decision *)
  banks : int;  (** banks the program uses *)
  conv_workload : Conv.workload;  (** same decision on CONV *)
  conv_opt_bits : int;  (** minimum digital precision (CONV-OPT) *)
  reference_accuracy : float;
      (** float accuracy; 1.0 for PCA and LinReg, whose scores are
          fidelities to the float result *)
  evaluate :
    ?seed:int ->
    ?profile:Promise_arch.Bank.profile ->
    ?prepare:(Promise_arch.Machine.t -> unit) ->
    ?recovery:Promise_compiler.Runtime.recovery ->
    ?banks:int ->
    ?pool:Promise_core.Pool.t ->
    ?kernel_mode:Promise_arch.Machine.kernel_mode ->
    ?batch:int ->
    swings:int list ->
    unit ->
    eval;
      (** the evaluation protocol, one for every benchmark: apply
          [swings] (one entry per AbstractTask, in topological order)
          to [graph]; create a fresh machine of [banks] banks (default
          {!Promise_compiler.Runtime.required_banks} of that graph;
          sparing lanes shrinks per-bank capacity, so fault scenarios
          pass more), of [profile] (default [Silicon]; pass [Custom _]
          for the error-source ablation) and noise seed [seed]
          (default 42); run [prepare] on it once, before any query —
          the fault-injection hook; score the test set on it; return
          the score with [mismatch = max 0 (reference − promise)].
          [recovery] enables the runtime's graceful-degradation path;
          [pool] parallelizes multi-bank task execution and
          [kernel_mode] selects the fused or reference analog datapath
          (both bit-identical). [batch] (default 1) scores that many
          noise realizations of every decision: the classifiers and
          PCA open one {!Promise_compiler.Runtime.session} per
          evaluation and run one [query ~batch] per test vector;
          LinReg runs its four statistics through
          {!Promise_compiler.Runtime.run_batch}. Batch 1 is
          bit-identical to one decision per test vector. *)
  stats : Promise_compiler.Precision.stats option;
      (** Sakr back-prop statistics (DNNs only) *)
}

(** {2 The Figure-10 suite (single-AbstractTask kernels + LinReg)} *)

val matched_filter : unit -> t
(** Gunshot detection, N = 512, 100 windows. *)

val matched_filter_sized : int -> t
(** Table-2 size variants: N ∈ {256, 512, 1024}. *)

val template_l1 : unit -> t
val template_l2 : unit -> t
(** Face recognition, 64 candidates of 16×16. *)

val template_sized : [ `L1 | `L2 ] * (int * int) -> t
(** Table-2 size variants: 16×16, 22×23, 32×33. *)

val svm : unit -> t
(** Face detection, 16×16 + bias, linear SVM. *)

val knn_l1 : unit -> t
val knn_l2 : unit -> t
(** Character recognition, 128 stored 16×16 samples, k = 5. *)

val knn_sized : [ `L1 | `L2 ] * (int * int) -> t
(** Table-2 size variants: 16×16, 22×23, 32×33. *)

val pca : unit -> t
(** Four-component feature extraction, 16×16 faces (not a classifier:
    its score is feature fidelity). *)

val linreg : unit -> t
(** 2-D linear regression over 8192 samples: 4 AbstractTasks; its score
    is parameter fidelity. *)

(** {2 The Figure-12 DNNs (MNIST-like 28×28 digits)} *)

type dnn_variant = D1 | D2 | D3
(** 784-128-10, 784-256-128-10, 784-512-256-128-10. *)

val dnn : dnn_variant -> t

(** {2 Suites} *)

val fig10_suite : unit -> t list
(** MatchFilt, TM-L1, TM-L2, SVM, kNN-L1, kNN-L2, PCA, LinReg. *)

val fig12_suite : unit -> t list
(** The six classifiers + DNN-1/2/3. *)

val size_variants : unit -> t list
(** The Table-2 problem-size sweep: matched filter at N ∈
    {256, 512, 1024}, template matching and k-NN (L1) at 16×16,
    22×23 and 32×33. *)

(** {2 Derived metrics} *)

(** [program_at_swings b swings] — re-lower with per-task swings. *)
val program_at_swings : t -> int list -> Program.t

(** [promise_energy b ~swings] — Eq. (6) per decision. *)
val promise_energy : t -> swings:int list -> Model.breakdown

val max_swings : t -> int list

(** [optimize ?pool b ~pm] — the compiler energy optimization: analytic
    (Sakr + Eq. 3) for DNNs, brute-force sweep otherwise. Returns the
    per-task swings and the evaluation at those swings. [pool] is
    forwarded to every evaluation. *)
val optimize : ?pool:Promise_core.Pool.t -> t -> pm:float -> (int list * eval, string) result

(** [lint ?pm ?adc_units b] — the graph-plus-program lint
    ({!Promise_compiler.Pipeline.lint_program}) of [b]'s graph, Sakr
    statistics and per-decision program, as target
    ["benchmark:NAME"]: what [promise-lint --benchmarks] and
    [promise-run --lint] report. *)
val lint :
  ?pm:float -> ?adc_units:int -> t -> Promise_analysis.Driver.report

(** {2 State-of-the-art comparison workloads (§6.2)} *)

(** [knn_soa_program ~metric] — the exact [7] configuration: 8-bit
    128-dim X against 128 W_j, single bank. *)
val knn_soa_program :
  metric:[ `L1 | `L2 ] -> Program.t

(** [dnn_soa ()] — (program, steady energy pJ per decision, sustained
    decision period ns) for the 784-512-256-128-10 network with row
    chunks on concurrent bank groups and layers pipelined across the
    decision stream (the paper's 36-bank configuration). *)
val dnn_soa : unit -> Program.t * float * float
