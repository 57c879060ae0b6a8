(** promise-serve: the batched, admission-controlled inference engine.

    The serving layer in front of the machine — the runtime/driver tier
    a programmable accelerator grows once it faces request traffic
    rather than batch jobs. The data path is

    {v  submit → bounded queue → per-model coalescer → batch dispatcher → responder  v}

    - {e Admission control}: requests enter a {!Promise_core.Queue_bounded}
      and a full queue rejects the offer {e immediately} with a typed
      [Capacity] error (logged as an [Admission_reject] incident) —
      backpressure is an answer to the client, not an unbounded buffer.
    - {e Coalescing}: queued requests for the same model accumulate in a
      per-model pending set and flush as one multi-decision batch when
      the set reaches [batch_max] {e or} its oldest request has waited
      [flush_us] microseconds, whichever comes first.
    - {e Dispatch}: one dispatch serves the primary and its digital
      fallback twin. In {!Batched} mode a single-task program's
      flushed batch goes through
      {!Promise_arch.Machine.execute_batch_into} with its launch fixed
      when the model is built (the zero-allocation in-buffer loop
      whenever the launch rides the fused sample plane); every other
      dispatch — a multi-task program, or {!Single} mode — runs the
      program once per decision ({!Promise_arch.Machine.run_program}).
      Execution runs under {!Promise_core.Supervisor} so a failure
      becomes typed per-request errors, never a dead daemon.
      [pool] fans multi-bank groups out across domains bank-major
      (per-bank affinity), exactly as {!Promise_arch.Machine.execute}.
    - {e Responder}: every request gets exactly one {!outcome} through
      the [respond] callback — a reply carrying the decision's emission
      values, or a typed rejection/timeout/failure.

    Bit-identity contract, extended through the service path: the values
    a request receives from a coalesced batch are bitwise identical to
    the values it would receive from sequential single-decision
    execution of the same arrival order on a twin machine (the PR-7
    batched ≡ sequential contract; [test_serve] and [--selftest-load]
    both enforce it).

    The engine is deliberately passive: {!submit}, {!pump} and
    [flush_due] are called by one driver (the socket daemon's select
    loop, or a load generator), the clock is injectable, and nothing
    spawns threads — which is what makes flush-by-deadline and
    watchdog-timeout behavior unit-testable with a fake clock. *)

(** {2 Models} *)

type model
(** A compiled, resident inference target: a per-decision ISA program
    on a deterministically pre-loaded machine. Requests name a model;
    each served decision replays the program once (drawing fresh analog
    noise when the machine is noisy — Monte-Carlo scoring). *)

val model_of_benchmark :
  ?name:string ->
  ?banks:int ->
  ?noise_seed:int option ->
  ?fill_seed:int ->
  Benchmarks.t ->
  model
(** Build a servable model from a Table-2 benchmark's per-decision
    program. [name] is the key requests address it by (default: the
    benchmark's descriptive name); [banks] defaults to the program's
    requirement; [noise_seed] (default [None] — noiseless,
    deterministic serving) seeds the analog noise streams; [fill_seed]
    (default 7) seeds the deterministic bank-row / X-REG data image, so
    two models built from the same seeds are bit-for-bit twins. *)

val model_name : model -> string

(** {2 The engine} *)

type mode =
  | Batched  (** coalesced multi-decision dispatch (the point) *)
  | Single
      (** flush identically, but execute one decision at a time — the
          batch=1 service path the selftest measures against *)

type reply = {
  values : float array;
      (** the decision's emission stream (output-buffer + accumulator
          emissions, task order) — bitwise equal across {!mode}s *)
  batch : int;  (** decisions in the flushed batch this request rode *)
}

type outcome = {
  o_rid : int;
  o_result : (reply, Promise_core.Error.t) result;
}

type t

val create :
  ?clock:(unit -> int64) ->
  ?incidents:Promise_core.Incident.t ->
  ?pool:Promise_core.Pool.t ->
  ?deadline_ms:float ->
  ?mode:mode ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_ms:float ->
  ?dwell_budget_us:int ->
  queue:int ->
  batch_max:int ->
  flush_us:int ->
  respond:(outcome -> unit) ->
  model list ->
  (t, Promise_core.Error.t) result
(** [create ~queue ~batch_max ~flush_us ~respond models] — an engine
    serving [models]. [queue] bounds admission (1..1048576);
    [batch_max] bounds coalescing (1..4096, the [PROMISE_BATCH] range);
    [flush_us] (1..10^7) is the deadline-triggered flush. [deadline_ms]
    arms the per-request watchdog: a request still undispatched that
    long after admission is answered with a typed [Timeout] (and a
    [Timeout] incident) instead of being served stale. [clock] is the
    monotonic ns source (injectable for tests); [mode] defaults to
    {!Batched}. Typed [Invalid_operand] on out-of-range knobs or
    duplicate model names.

    Self-healing: a hardware [Fault] during a flush walks the
    degradation ladder — destructive BIST + quarantine via
    {!Promise_compiler.Runtime.recovery_of_report}, data-image refill,
    retry on the analog primary, then a digital fallback twin
    (reference kernels on a bit-for-bit rebuilt machine) — so requests
    only fail if the digital rung fails too. A per-model circuit
    breaker trips after [breaker_threshold] (1..10000, default 8)
    consecutive batch failures: flushes then answer typed [Overloaded]
    (+ retry-after hint) for [breaker_cooldown_ms] (default 100)
    without touching the machine, after which one half-open probe
    batch decides close vs re-open. [dwell_budget_us] (1..10^7) arms
    dwell-based overload shedding at {!submit}; without it nothing is
    shed. Every breaker/BIST/degradation transition is recorded in the
    incident log. *)

val submit : t -> rid:int -> model:string -> (unit, Promise_core.Error.t) result
(** Offer one request. [Error] with [Capacity] when the queue is full
    (an [Admission_reject] incident is logged; the caller answers the
    client), [Overloaded] when a dwell budget is armed and the inbox
    head has already waited longer than it (shedding {e before} the
    queue is physically full — admitting more would only manufacture
    timeouts; the error context carries a [retry-after-ms] hint), or
    [Invalid_operand] for an unknown model — rejected at admission so
    the queue only ever holds dispatchable work. [Ok ()] guarantees
    exactly one later {!outcome} for [rid]. *)

val pump : t -> unit
(** Drain the admission queue into the per-model pending sets, flushing
    every set that reaches [batch_max] (flush-by-size). *)

val flush_all : t -> unit
(** Dispatch everything pending regardless of age (shutdown / drain). *)

type stats = {
  submitted : int;  (** admitted requests *)
  rejected : int;  (** admission rejections (queue full / unknown model) *)
  served : int;
  timeouts : int;  (** watchdog-expired requests *)
  failures : int;  (** dispatch failures surfaced as per-request errors *)
  batches : int;  (** dispatched batches *)
  shed : int;  (** typed [Overloaded] outcomes (dwell shed + breaker open) *)
  healed : int;  (** batches recovered on the primary after BIST + refill *)
  fallback_batches : int;  (** batches served by the digital twin *)
  queue : Promise_core.Queue_bounded.stats;
  latency_ns : Promise_core.Histogram.t;  (** admission → response *)
  batch_sizes : Promise_core.Histogram.t;  (** decisions per dispatched batch *)
}

(** {2 The socket daemon} *)

type wire_request = { w_rid : int; w_model : string }
(** One request frame ({!Promise_core.Ipc} framing over a Unix-domain
    stream socket). [w_rid] is echoed back; clients keep it unique per
    connection. *)

type wire_response = {
  r_rid : int;
  r_values : float array;  (** [[||]] when [r_error] is set *)
  r_batch : int;
  r_error : string option;  (** rendered typed error *)
}

type daemon_summary = {
  d_completed : int;  (** responses written (incl. rejections) *)
  d_stats : stats;
}

val daemon :
  ?max_requests:int ->
  ?incidents:Promise_core.Incident.t ->
  ?pool:Promise_core.Pool.t ->
  ?deadline_ms:float ->
  ?breaker_threshold:int ->
  ?dwell_budget_us:int ->
  queue:int ->
  batch_max:int ->
  flush_us:int ->
  listen:string ->
  stop:Promise_core.Supervisor.stop ->
  model list ->
  (daemon_summary, Promise_core.Error.t) result
(** Serve forever on Unix socket [listen] (unlinked and re-bound):
    accept connections, read {!wire_request} frames, answer with
    {!wire_response} frames through a {!Batched} engine on the
    monotonic clock, whose knobs and defaults are {!create}'s. One
    select loop drives admission, coalescing and dispatch; the select
    timeout is the earliest pending flush deadline, so
    flush-by-deadline holds within a poll quantum. Returns after [stop]
    is requested (SIGINT/SIGTERM) or after [max_requests] responses
    when positive — the drain flushes every pending batch first. A dead
    client's responses are dropped (and logged), never fatal ([SIGPIPE]
    is ignored for the loop, {!Promise_core.Ipc.with_sigpipe_ignored}). *)

type probe_summary = {
  p_sent : int;
  p_ok : int;
  p_rejected : int;
  p_max_batch : int;  (** largest coalesced batch any reply rode *)
}

val probe :
  ?connect_timeout_ms:float ->
  ?requests:int ->
  path:string ->
  model:string ->
  unit ->
  (probe_summary, Promise_core.Error.t) result
(** Client-side smoke: connect to a daemon at [path] (retrying until
    [connect_timeout_ms], default 10 s — the daemon may still be
    binding), pipeline [requests] (default 8) requests for [model] on
    one connection, and collect every response. An error reply counts
    in [p_rejected]; transport errors are typed. A daemon that closes
    the connection mid-pipeline is reported {e immediately} as a typed
    error whose context says how many replies arrived before the close
    ([replies-before-close]/[missing]) — never mistaken for a hang —
    and [SIGPIPE] is ignored for the probe's duration so a write to the
    closed socket surfaces as a typed error too; the caller's
    disposition is back in place when [probe] returns or raises. *)

(** {2 The chaos soak} *)

type chaos_report = {
  c_requests : int;  (** offered by the seeded arrival process *)
  c_admitted : int;  (** accepted into the queue *)
  c_served : int;
  c_timeouts : int;
  c_failed : int;  (** typed non-timeout, non-overload failures *)
  c_shed : int;  (** [Overloaded] outcomes (dwell / breaker-open) *)
  c_rejected : int;  (** refused at submit (capacity or admit fault) *)
  c_lost : int;  (** admitted but never answered — must be 0 *)
  c_multi : int;  (** answered more than once — must be 0 *)
  c_healed : int;
  c_fallback_batches : int;
  c_breaker_opens : int;
  c_survivors_checked : int;
      (** served requests compared bitwise against a fault-free twin —
          every served request *)
  c_survivor_mismatches : int;  (** must be 0 *)
  c_ipc_faults : int;  (** typed truncation errors on the response echo *)
  c_checkpoint_failures : int;  (** injected fsync failures, all typed *)
  c_sink_degraded : int;  (** [Sink_degraded] recovery markers in the log *)
  c_events : string;
      (** canonical incident transcript: every logged incident with the
          wall-clock prefix stripped, plus a summary line — two soaks
          with the same seed must produce byte-identical [c_events] *)
}

val chaos_run :
  ?seed:int ->
  ?requests:int ->
  incident_path:string ->
  checkpoint_path:string ->
  model:(unit -> model) ->
  unit ->
  (chaos_report, Promise_core.Error.t) result
(** Soak the whole service path under a seeded failure storm, on a
    virtual clock so every run with the same [seed] replays the same
    schedule: base failpoints on IPC/checkpoint/incident/admission/
    flush, plus a storm keyed to arrival progress (so every phase
    overlaps live traffic whatever the seed draws) — one transient
    analog fault at 5% of the offered load (BIST clean → retry →
    healed in place), a bank death at
    15% of the offered load (heal ladder → BIST → digital fallback),
    revival at 40% (reprobe → analog-restored), a dispatcher stall
    through [50%, 65%) (dwell shedding and watchdog timeouts), and a
    machine-level blackout through [75%, 90%) that defeats the digital
    rung too, tripping the circuit breaker.
    Invariants checked and reported: exactly one outcome per admitted
    request ([c_lost] = [c_multi] = 0), no crash (any error is typed),
    and every served value bitwise equal to a fault-free twin run
    ([c_survivor_mismatches] = 0). The twin comparison fails closed: a
    twin engine that cannot be built is an [Error], and a survivor the
    twin has no value for counts as a mismatch. The failpoint registry
    is reset on exit. *)

(** {2 The self-test load generator} *)

type load =
  | Closed_loop of int
      (** keep that many requests outstanding; each response immediately
          triggers the next submit — the drain is eager, so the server
          batches exactly what the concurrency window holds *)

type load_report = {
  l_served : int;
  l_rejected : int;
  l_timeouts : int;
  l_failures : int;
  l_seconds : float;
  l_rps : float;  (** served / seconds *)
  l_p50_ms : float;
  l_p95_ms : float;
  l_p99_ms : float;
  l_mean_batch : float;
  l_max_batch : float;
  l_batch_hist : (float * int) list;  (** (batch size, flush count) *)
  l_max_queue_depth : int;
  l_digest : string;  (** MD5 over (rid, value bit patterns), rid order *)
}

val load_run :
  ?jobs:int ->
  ?incidents:Promise_core.Incident.t ->
  ?deadline_ms:float ->
  mode:mode ->
  queue:int ->
  batch_max:int ->
  flush_us:int ->
  requests:int ->
  load:load ->
  model:(unit -> model) ->
  unit ->
  (load_report, Promise_core.Error.t) result
(** Drive [requests] requests through a fresh engine against a fresh
    model ([model] is a thunk so paired runs get bit-for-bit twin
    machines) and measure wall-clock throughput, latency percentiles,
    batch-size distribution and queue depth on the monotonic clock.
    [l_digest] fingerprints every served value bitwise: two runs in
    different {!mode}s over twin models must produce equal digests —
    the identity contract through the whole service path. *)

(** {2 Test hooks} *)

module For_tests : sig
  val flush_due : t -> unit
  (** Flush every pending set whose oldest request has waited [flush_us]
      (flush-by-deadline), answering watchdog-overdue requests with
      [Timeout] first. Reads the engine clock. *)

  val next_deadline_ns : t -> int64 option
  (** Engine-clock instant of the earliest pending flush deadline — the
      select-loop timeout. [None] when nothing is pending. *)

  val stats : t -> stats
end
