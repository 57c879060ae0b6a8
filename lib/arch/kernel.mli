(** Compiled per-task kernels for the analog datapath: the one fused
    sampler.

    {!specialize} compiles a (bank, task, launch-shape) triple once,
    hoisting out of the iteration loop everything the scalar path
    ({!Bank.run_iteration}) recomputes every time: the effective swing
    and its noise factor, the transfer-curve selection (pre-sampled per
    8-bit code — exact, since the aREAD input domain is exactly the 256
    codes), the idle-slot leakage exponential, stuck/dead lane
    overrides, the charge-share membership set, and the ADC offset.
    {!sample_batch_into} then runs S1 aREAD → Class-1 combine → leakage
    → S2 aSD → S3 charge share → ADC for a whole batch of decisions into
    a structure-of-arrays sample plane; a single decision is batch 1.
    Its working set (one iteration's hoisted W lane rows, the task's
    normalized X-REG rows and the noise tile) is one buffer per domain,
    so kernels themselves are immutable.

    Bit-identity contract: for every task, profile, fault set and lane
    mask a kernel exists for, the samples are bitwise the {!Bank.Sample}
    payloads of the scalar path, consuming the bank's noise stream
    draw-for-draw in the same order. The differential QCheck suites
    (test_kernels, test_batch) enforce this; {!Machine.execute}'s
    [`Reference`] mode exists to run them and to debug any divergence. *)

type t

(** [fusable task] — whether [task] is the fused shape: analog Class-1,
    aVD on, Class-3 ADC. Exactly these tasks digitize one sample per
    iteration, on the scalar path as on a kernel; every other task
    never drives TH. *)
val fusable : Promise_isa.Task.t -> bool

(** [specialize ?lane_mask bank ~task ~active_lanes] — compile a kernel
    for running [task] on [bank] with this launch shape, capturing the
    bank's current faults; {!matches} reports whether a cached kernel is
    still valid. [None] when the task is not {!fusable} or the bank has
    an X-REG transient
    upset profile, whose data-dependent draws only the scalar path
    models. Raises [Invalid_argument] when [active_lanes] is outside
    [1, 128], like {!Bank.run_iteration}. *)
val specialize :
  ?lane_mask:bool array ->
  Bank.t ->
  task:Promise_isa.Task.t ->
  active_lanes:int ->
  t option

(** [matches t bank ~task ~active_lanes ~lane_mask] — whether [t] was
    specialized for exactly this bank object and launch shape, with the
    bank's faults unchanged since specialization. The ADC gain is not
    part of the identity: it is passed with each {!sample_batch_into}. *)
val matches :
  t ->
  Bank.t ->
  task:Promise_isa.Task.t ->
  active_lanes:int ->
  lane_mask:bool array option ->
  bool

(** [sample_batch_into t ~adc_gain ~batch ~dst ~off] — run [batch] whole
    decisions through the kernel, storing the sample of decision [d],
    iteration [i] into [dst.{off + d*iterations + i}].

    Bit-identity: the samples (and the final RNG stream state) are
    exactly what [batch] back-to-back scalar decisions would produce.
    The noise for a whole tile of decisions is drawn through one
    {!Promise_analog.Rng.gaussian_fill_ba} call — bit-identical because
    the scalar path consumes the stream in the same
    (decision, iteration, lane) order and 128-lane vectors leave the
    Box-Muller cache empty at every decision boundary. Inside a tile
    the loop runs iteration-major: an iteration's per-lane W invariants
    (aREAD value with stuck/dead overrides folded in, noise sigma) are
    hoisted into rows once and serve every decision of the tile. The
    X-REG rows 0..X_PRD the task reads are normalized once per call:
    nothing writes them while it runs, since a launch that stages into
    a row its own task reads never reaches a kernel
    ({!Machine.execute} sends it to the scalar loop) and every other
    launch stages only after the whole plane is sampled. Zero minor-heap
    allocations: the domain's rows and noise tile are allocated once
    and reused.

    Raises [Invalid_argument] if [batch < 1], [adc_gain <= 0], or the
    [dst] slice [off .. off + batch*iterations - 1] is out of range. *)
val sample_batch_into :
  t ->
  adc_gain:float ->
  batch:int ->
  dst:Promise_analog.Rng.ba ->
  off:int ->
  unit
