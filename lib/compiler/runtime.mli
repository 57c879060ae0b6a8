(** The PROMISE host runtime (paper §4.3).

    Given a compiler-IR graph and float data bindings, the runtime
    - quantizes W/X to the 8-bit bit-cell format, choosing a joint scale
      for distance (add/subtract) kernels and independent scales for
      multiply kernels, and folds the scales plus the analog gain
      staging into the TH digital pre-gain so every emitted value is in
      the original units;
    - plans the data layout ({!Promise_arch.Layout}), stages weights and
      the X vector into the machine, and launches one Task per row
      chunk (RPT_NUM ≤ 128);
    - keeps weights resident: a {!session} stages each node's W once
      and then streams only X, query after query, as PROMISE keeps W in
      the bit-cell arrays (paper §3, §4.3);
    - streams element-wise two-array reductions (the Linear-Regression
      [mean_product]) one row per launch, reloading X-REG each time —
      the paper's §6.2 re-access penalty;
    - chains DAG edges (a producer's output becomes the consumer's X),
      combines min/max decisions across chunks, and divides [Do_mean]
      accumulations by N on the host;
    - optionally degrades gracefully around known hardware faults
      ({!recovery}): lane sparing re-plans the layout over the healthy
      bit-cell columns, excluded banks execute no tasks, and a digital
      canary bounds every output-buffer chunk, retrying and finally
      falling back to the digital reference when the analog result is
      out of bounds. *)

type bindings

val bindings : unit -> bindings
val bind_matrix : bindings -> string -> float array array -> unit
val bind_vector : bindings -> string -> float array -> unit

(** [bind_flat b name data ~cols] — reshape a long 1-D array into a
    [⌈len/cols⌉ × cols] matrix binding (zero-padded), the layout the
    whole-array reductions expect. *)
val bind_flat : bindings -> string -> float array -> cols:int -> unit

type task_output = {
  values : float array;  (** per-row outputs, original units *)
  decision : (int * float) option;  (** fused argmin/argmax (row, value) *)
}

(** {2 Graceful degradation} *)

(** How to run in the presence of known faults. *)
type recovery = {
  max_retries : int;
      (** re-executions of a chunk whose canary fails (transients often
          pass on retry) *)
  digital_fallback : bool;
      (** after the retry budget, substitute the digital reference for
          the chunk instead of failing *)
  canary_tolerance : float;
      (** a chunk value [v] with digital reference [r] passes when
          [|v - r| <= tolerance * max 1 |r|] *)
  excluded_banks : int list;  (** banks that hold no data, run no task *)
  spared_lanes : int list;
      (** faulty physical lanes; layouts avoid them ({!Promise_arch.Layout.spare_map}) *)
}

val default_recovery : recovery
(** 2 retries, fallback on, tolerance 0.25, nothing excluded/spared. *)

(** [recovery_of_report r] — {!default_recovery} specialized to a BIST
    report: dead banks (and banks with every ADC unit dead) are
    excluded; stuck and dead lanes are spared. Offset/drift/transient
    findings are left to the canary + retry/fallback path. *)
val recovery_of_report : Promise_arch.Selftest.report -> recovery

type run_result = {
  outputs : (int * task_output) list;  (** by IR node id, topo order *)
  machine : Promise_arch.Machine.t;
}

(** [required_banks ?max_lanes g] — banks the graph needs at one chunk
    per group (the runtime reuses groups when the machine is smaller).
    [max_lanes] mirrors the lane-sparing layout cap. *)
val required_banks : ?max_lanes:int -> Promise_ir.Graph.t -> int

(** {2 Sessions: W resident, X per query}

    A graph's W operands are static: they come from bindings, never
    from another node. Its X operands change with every query. A
    session splits the two. It resolves each node's W once, and on each
    query it quantizes X, previews the ADC gain, loads X and executes.
    The preview is a digital pass over the quantized W and X that stops
    at the first row settling the gain at 1 (most queries of the
    distance benchmarks), so it reads the whole of W only when the
    gain is larger.

    Each node keeps its W quantized at the last scale used. Multiply
    kernels scale W on its own, so that scale never moves. Distance
    kernels ([Vo_add]/[Vo_sub]) share one scale between W and X: a
    query whose [max |x|] exceeds [max |W|] moves it, and W is quantized
    again.

    W is staged into each bank of a group only when that bank no
    longer holds its exact codes. The session records what its last
    staging wrote into each bank and the bank's write epoch right after
    ({!Promise_arch.Bitcell_array.epoch}). Any later write moves the
    epoch: a BIST run, a direct write, a write-buffer flush, another
    session, or another node of this graph staging into a shared bank
    (so the layers of a DNN that share bank 0 restage bank 0 on every
    query, and only bank 0). Each bank's slices are independent,
    staging draws no noise and rewriting the same codes changes
    nothing, so a session's results are bit-identical to a fresh
    {!run} per query on the same machine.

    A session belongs to one caller on one domain: it mutates its
    caches and the machine without locks. *)

type session

(** [session ?recovery ?pool machine g static] — a session
    running [g] on [machine] with the W matrices bound in [static].
    Typed [Invalid_operand] errors for an unbound W, too few W rows, or
    a W row not exactly [vector_len] wide (context [task] and [row]);
    [Unsupported] for a W produced by another node. Touches no machine
    state: staging happens on the first query. *)
val session :
  ?recovery:recovery ->
  ?pool:Promise_core.Pool.t ->
  Promise_arch.Machine.t ->
  Promise_ir.Graph.t ->
  bindings ->
  (session, Promise_core.Error.t) result

(** [query s b ~batch] — [batch] decisions of the graph for the X
    vectors bound in [b] (W bindings in [b] are ignored), decision [d]'s
    result at index [d]. Bit-identical to [batch] successive {!run}
    calls on the session's machine with the session's W and [b]'s X.

    A single-node graph without recovery whose chunks each own a bank
    group (no streaming X) runs chunk by chunk: operands load once per
    chunk and the decisions ride {!Promise_arch.Machine.execute_batch},
    which is bit-identical because each group's RNG streams see exactly
    their own decisions in order. Everything else runs one decision at
    a time. The [runtime.run] failpoint is consulted once per decision,
    before the first launch touches the machine. [Invalid_operand] when
    [batch < 1]. *)
val query :
  session ->
  bindings ->
  batch:int ->
  (run_result array, Promise_core.Error.t) result

(** {2 One-shot runs} *)

(** [run ?machine ?recovery ?pool g b] — execute the graph: a fresh
    {!session} over [b] and one {!query} of it. When
    [machine] is omitted, a default [Silicon]-profile machine with
    {!required_banks} banks (seeded 42) is created. Without [recovery]
    the runtime behaves exactly as before (no canary, full lane/bank
    use). When recovery leaves no analog resource at all — every bank
    group excluded, or all 128 lanes spared — and [digital_fallback] is
    on, every chunk is served by the digital reference (the machine
    launches no Task) instead of failing; with fallback off this is a
    typed [Capacity] error. [pool] fans multi-bank task execution out
    across domains ({!Promise_arch.Machine.execute}); results are
    bit-identical at any job count. The analog datapath, fused or
    scalar reference, is the machine's default
    ({!Promise_arch.Machine.default_kernel_mode}; both bit-identical).
    Errors
    are typed ({!Promise_core.Error.t}, layer ["runtime"] or
    ["compiler"]); unrecoverable canary misses surface as
    [Retry_exhausted]. *)
val run :
  ?machine:Promise_arch.Machine.t ->
  ?recovery:recovery ->
  ?pool:Promise_core.Pool.t ->
  Promise_ir.Graph.t ->
  bindings ->
  (run_result, Promise_core.Error.t) result

(** [run_batch ?machine ?recovery ?pool g b ~batch] — run
    [batch] independent decisions of the graph on one machine: a fresh
    {!session} over [b] and one {!query} of it at [batch]. The results
    are exactly those of [batch] successive {!run} calls on the same
    machine. [Invalid_operand] when [batch < 1]. *)
val run_batch :
  ?machine:Promise_arch.Machine.t ->
  ?recovery:recovery ->
  ?pool:Promise_core.Pool.t ->
  Promise_ir.Graph.t ->
  bindings ->
  batch:int ->
  (run_result array, Promise_core.Error.t) result

(** [final_output r] — output of the last node in topological order. *)
val final_output : run_result -> (task_output, Promise_core.Error.t) result

(** Internals exposed for tests. *)
module For_tests : sig
  (** [estimate_adc_gain at plan ~w_codes ~x ~streaming] — the
      power-of-two ADC range-matching gain the runtime would program
      (see DESIGN.md). Every W row reads all of [x], or with
      [~streaming:true] its own [vector_len]-long window of it. Stops
      reading rows once the gain is settled at 1. Allocates nothing
      beyond a constant. Codes are 8-bit: reading one outside
      [-128, 127] raises [Invalid_argument]. *)
  val estimate_adc_gain :
    Promise_ir.Abstract_task.t ->
    Promise_arch.Layout.plan ->
    w_codes:int array array ->
    x:int array option ->
    streaming:bool ->
    float
end
