(** The multi-bank PROMISE machine (paper Fig. 2(b)).

    Banks are grouped in units of [2^MULTI_BANK] for task execution; a
    [launch] names the group, the per-bank active lane count and the TH
    configuration the host runtime computed (paper §4.3: OP_PARAM /
    RPT_NUM / MULTI_BANK are computed on the host before Task launch). *)

type config = {
  banks : int;  (** total banks in the machine (1..64) *)
  profile : Bank.profile;
  noise_seed : int option;  (** [None] — ideal, noise-free *)
}

val default_config : config
(** 4 banks, [Silicon] profile, seed 42. *)

val ideal_config : banks:int -> config
(** Ideal profile, no noise: functional validation mode. *)

type t

(** How {!execute} runs the per-bank iteration chain.

    [Fused] (the default) compiles one {!Kernel} per bank of the group
    — the swing/noise/LUT/leakage/fault constants hoisted out of the
    loop and pre-sampled per 8-bit code — caches it on the machine,
    revalidating per launch, and samples every decision through the
    sample plane ({!Kernel.sample_batch_into}); a single decision is
    batch 1. Launches no kernel can express — task shapes outside the
    fused pattern, banks with an X-REG transient upset profile, and
    launches that route emits into an X-REG row the task itself reads
    — run the scalar loop over {!Bank.run_iteration}, which is all
    [Reference] runs. The two are bit-identical on every task, profile,
    fault set, destination and lane mask (the differential QCheck
    suites enforce it); [Reference] exists as the oracle for those
    suites, as the serving tier's digital twin, and for debugging. *)
type kernel_mode = Fused | Reference

(** The session default: [Reference] when the [PROMISE_KERNEL_MODE]
    environment variable is ["reference"] (or ["ref"]/["scalar"]),
    [Fused] otherwise. Read once, lazily. *)
val default_kernel_mode : unit -> kernel_mode

val create : config -> t
val config : t -> config
val n_banks : t -> int
val bank : t -> int -> Bank.t
val trace : t -> Trace.t
val reset_trace : t -> unit

(** A Task launch descriptor, produced by the compiler runtime. *)
type launch = {
  task : Promise_isa.Task.t;
  bank_group : int;  (** which group of [2^multi_bank] banks *)
  active_lanes : int;  (** per bank *)
  adc_gain : float;  (** ADC range-matching gain, a power of two ≥ 1 *)
  th : Th_unit.config;
  dest_xreg : int;  (** destination X-REG index for [Des_xreg] emits *)
}

(** Results of one Task execution. *)
type result = {
  emitted : float list;  (** output-buffer emissions, oldest first *)
  acc_out : float list;  (** emissions routed to the accumulator input *)
  xreg_out : float list;
      (** values staged into X-REG (after their 8-bit quantization) *)
  write_buffer : int list;
      (** codes staged into the write data buffer (DES = 11); a
          following Class-1 [write] Task stores them into the array *)
  argext : (int * float) option;  (** max/min decision (group index, value) *)
  digital : int array list;  (** digital read results *)
  record : Trace.task_record;
}

(** [execute ?lane_mask ?pool t launch] — run every iteration of the
    task, combine bank partials over the cross-bank rail, drive TH,
    route destinations, and append a record to the trace. [lane_mask]
    (lane sparing, {!Layout.lane_mask_of_map}) restricts charge sharing
    to the masked physical lanes. [pool] (default
    {!Promise_core.Pool.sequential}) fans the banks of a multi-bank
    group out across domains while they fill the sample plane,
    bank-major; because every bank draws from its own split RNG stream,
    results are bit-identical at any job count. [kernel_mode] (default
    {!default_kernel_mode}) selects the fused datapath or the scalar
    reference path — also bit-identical by contract. [execute] is
    {!execute_batch} at batch 1. [Error] (typed, layer ["machine"]) when
    the [machine.execute] failpoint fires, the task fails validation,
    the bank group exceeds the machine, or every ADC unit of the group
    is dead — all checked before any bank state or RNG stream is
    touched. *)
val execute :
  ?lane_mask:bool array ->
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:kernel_mode ->
  t ->
  launch ->
  (result, Promise_core.Error.t) Stdlib.result

(** [default_launch task] — a launch with ISA-level defaults for raw
    (assembler-driven) execution: bank group 0, all 128 lanes, unit ADC
    gain, TH pre-gain = 128 × the task's analog scale (so emitted
    values are sums in normalized units), grouping/threshold/destination
    from OP_PARAM. *)
val default_launch : Promise_isa.Task.t -> launch

(** [run_program ?pool t program] — execute a raw ISA program with
    {!default_launch} semantics (the [promise-asm] path: no compiler
    metadata needed); stops at the first error. *)
val run_program :
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:kernel_mode ->
  t ->
  Promise_isa.Program.t ->
  (result list, Promise_core.Error.t) Stdlib.result

(** {2 Batched execution}

    The sample plane runs N decisions of one launch in a single pass:
    each bank of the group samples its whole batch through
    {!Kernel.sample_batch_into} into a bank-major structure-of-arrays
    plane (noise for the whole batch drawn in one
    {!Promise_analog.Rng.gaussian_fill_ba} per tile), then the
    cross-bank rail and TH reduce the plane decision by decision.
    Bit-identity contract: for every launch and every [batch], the
    results — values, RNG stream states, per-decision trace records —
    are exactly those of [batch] back-to-back {!execute} calls. The
    differential QCheck suite (test_batch) enforces this against both
    the fused and the scalar [Reference] paths. *)

(** The session's default batch width: [PROMISE_BATCH] when it parses
    as an integer in [1, 4096], else 1. Read once, lazily. The variable
    feeds CLI and benchmark defaults only — plain {!execute}/compiler
    runs never batch implicitly, so accuracy results are independent of
    it. [Promise.check_env] validates it loudly at startup. *)
val default_batch : unit -> int

(** [execute_batch ?lane_mask ?pool ?kernel_mode t launch ~batch] — run
    [batch] decisions of [launch], returning one {!result} per decision
    (index = decision order). When every bank of the group has a fused
    kernel (see {!kernel_mode}), the whole batch rides the sample plane
    after one set-up, which consults the [machine.execute] failpoint
    once; otherwise each decision runs the scalar loop after its own
    set-up, exactly as [batch] {!execute} calls would. [pool] fans the
    banks of the group out bank-major with one synchronization per
    batch. [Error] with [Invalid_operand] when [batch < 1], otherwise
    exactly {!execute}'s errors. *)
val execute_batch :
  ?lane_mask:bool array ->
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:kernel_mode ->
  t ->
  launch ->
  batch:int ->
  (result array, Promise_core.Error.t) Stdlib.result

(** [emissions_per_decision task ~th] — the length of one decision's
    emission stream, [emitted @ acc_out]: one value per TH group (final
    partial group included), or exactly one for max/min, when the task
    is {!Kernel.fusable} and [th] routes to the output buffer or the
    accumulator; 0 otherwise (X-REG and write-buffer emits stage state,
    and other task shapes never drive TH). *)
val emissions_per_decision : Promise_isa.Task.t -> th:Th_unit.config -> int

(** [execute_batch_into ?lane_mask ?pool ?kernel_mode t launch ~batch
    ~out] — {!execute_batch} with the results written as values: the
    emission stream of decision [d] lands in [out.{d * epd + g}], with
    [epd] the returned {!emissions_per_decision}, bitwise what
    {!execute_batch}'s [emitted @ acc_out] would carry. Every launch is
    served. When the launch rides the sample plane and routes to the
    output buffer or the accumulator, an in-buffer loop reduces the
    plane with no per-decision allocation (the Gc property in
    test_batch asserts under 1 minor word per task; [C4_sigmoid] and
    [C4_relu] box one float per TH group) and appends ONE trace record
    for the whole batch with the pipelined timing model: the analog
    pipeline never drains between same-shape decisions, so cycles =
    task_cycles + (batch − 1) × iterations × TP, plus per-decision
    degraded-ADC stalls ({!Scheduler.run_batch} validates the closed
    form). Every other launch — [Reference] mode, no kernel, an X-REG
    flip profile, an X-REG or write-buffer destination — runs
    {!execute_batch}'s own path after the one set-up, with its
    per-decision trace records and state changes. [Error] with
    [Invalid_operand] when [batch < 1] or
    [Bigarray.Array1.dim out < batch * epd], both before any bank, RNG
    stream or trace is touched; otherwise exactly {!execute_batch}'s
    errors. *)
val execute_batch_into :
  ?lane_mask:bool array ->
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:kernel_mode ->
  t ->
  launch ->
  batch:int ->
  out:Promise_analog.Rng.ba ->
  (int, Promise_core.Error.t) Stdlib.result

(** [run_program_batch ?pool ?kernel_mode t program ~batch] — [batch]
    decisions of a raw ISA program with {!default_launch} semantics;
    element [d] holds decision [d]'s per-task results. Single-task
    programs ride {!execute_batch}; multi-task programs (which may feed
    bank state forward between tasks) replay sequentially. Bit-identical
    to [batch] successive {!run_program} calls either way. *)
val run_program_batch :
  ?pool:Promise_core.Pool.t ->
  ?kernel_mode:kernel_mode ->
  t ->
  Promise_isa.Program.t ->
  batch:int ->
  (result list array, Promise_core.Error.t) Stdlib.result

(** {2 Test hooks} *)

module For_tests : sig
  (** [(hits, misses)] of the degraded-ADC stall memo: the
      discrete-event {!Scheduler} pair behind the excess-stall
      accounting is keyed on (stage delays × iterations × available
      units) and cached process-wide. *)
  val stall_memo_stats : unit -> int * int

  val reset_stall_memo : unit -> unit

  (** [cached_kernel t ~bank] — the kernel slot of machine bank [bank]:
      the last kernel specialized for it, [None] when its last launch
      had none. *)
  val cached_kernel : t -> bank:int -> Kernel.t option

  (** [execute_exn ?lane_mask ?pool ?kernel_mode t launch] — {!execute},
      raising [Invalid_argument] with the rendered error (assembler-level
      paths and tests). *)
  val execute_exn :
    ?lane_mask:bool array ->
    ?pool:Promise_core.Pool.t ->
    ?kernel_mode:kernel_mode ->
    t ->
    launch ->
    result
end

(** {2 Data staging} *)

(** [load_weights ?lane_map ?bank t ~group ~base ~plan w] — place
    row-chunk matrix [w] (rows × vector_len 8-bit codes) into the banks
    of [group] starting at word row [base], per [plan]'s slicing; with
    [bank], into the group's [bank]-th bank alone (its slices only, the
    other banks untouched). [lane_map] ({!Layout.spare_map}) scatters
    logical lane [l] of each slice to physical lane [lane_map.(l)] (lane
    sparing). *)
val load_weights :
  ?lane_map:int array ->
  ?bank:int ->
  t ->
  group:int ->
  base:int ->
  plan:Layout.plan ->
  int array array ->
  unit

(** [load_x ?lane_map t ~group ~xreg_base ~plan x] — broadcast the input
    vector's per-bank, per-segment slices into X-REG entries
    [xreg_base .. xreg_base + segments - 1] of each bank in [group],
    scattered through [lane_map] when present. *)
val load_x :
  ?lane_map:int array ->
  t ->
  group:int ->
  xreg_base:int ->
  plan:Layout.plan ->
  int array ->
  unit
