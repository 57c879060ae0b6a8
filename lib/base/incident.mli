(** Structured JSONL incident log for supervised runs.

    Every noteworthy supervision event — a watchdog timeout, a retry,
    a quarantined work item, a runtime degradation, a checkpoint write
    or resume, a signal-triggered flush — appends one self-contained
    JSON object to the sink, so a 40-minute campaign leaves an
    audit trail that survives the process and can be shipped as a CI
    artifact. Writes are mutex-serialized (pool workers log
    concurrently) and flushed per line: the tail of the log is valid
    JSONL even after a SIGKILL.

    Lines look like
    {v {"seq":3,"t_ms":152.7,"wall":"2026-08-06T12:00:01Z","kind":"retry","item":"cell-7","attempt":"1","delay_ms":"48.1"} v}
    ([seq] is a per-sink counter, [t_ms] monotonic milliseconds since
    the sink opened, [wall] UTC wall-clock). *)

type kind =
  | Timeout  (** a work item exceeded its deadline *)
  | Retry  (** an attempt failed; backing off before the next *)
  | Quarantine  (** retries exhausted; the item is isolated *)
  | Degradation  (** the system continued in a degraded mode *)
  | Checkpoint_write  (** progress persisted *)
  | Checkpoint_resume  (** a run resumed from persisted progress *)
  | Checkpoint_stale  (** a checkpoint was rejected (config mismatch) *)
  | Signal  (** SIGINT/SIGTERM observed; final flush initiated *)
  | Run_start
  | Run_end
  | Worker_spawn  (** a fleet forked (or replaced) a worker process *)
  | Worker_death  (** a worker exited, was signaled, or was killed *)
  | Shard_done  (** a fleet shard completed (with timing) *)
  | Chaos  (** the chaos self-test deliberately killed a worker *)
  | Admission_reject
      (** the serving layer's bounded queue refused a request *)
  | Breaker  (** a serve circuit breaker changed state *)
  | Bist  (** a built-in self-test ran (findings in the fields) *)
  | Sink_degraded
      (** this sink itself failed (e.g. ENOSPC) and later recovered;
          the [dropped] field counts the lines lost in between *)

val kind_name : kind -> string

type t

val null : t
(** Discards everything; the default when no [--incidents] path is
    given. *)

val default_max_bytes : int
(** The rotation cap of a file sink: 64 MiB. *)

val to_file : ?max_bytes:int -> string -> (t, Error.t) result
(** Append-mode sink on [path] (created if missing). Once the live
    file would cross [max_bytes] (default {!default_max_bytes}) it is
    rotated to [path ^ ".1"] — overwriting the previous backup — and a
    fresh file is started, so a retry storm in a long fleet run keeps
    at most ~2 x [max_bytes] of log on disk. *)

val to_buffer : Buffer.t -> t
(** In-memory sink, for tests. *)

val record : t -> kind -> (string * string) list -> unit
(** [record t kind fields] — append one JSONL line. Keys [seq],
    [t_ms], [wall] and [kind] are reserved; [fields] is free-form
    string key/value context. Never raises: when a file sink errors
    (ENOSPC, injected [incident.write]/[incident.rotate] failpoints) it
    degrades to a counting null sink, and the first write that lands
    again is preceded by one [Sink_degraded] marker carrying the count
    of lines lost — losing incidents must not kill the campaign they
    describe, but the loss itself is an incident. *)

val count : t -> int
(** Lines recorded through this sink so far (0 for {!null}). *)

val degraded : t -> bool
(** Whether a file sink is currently in the counting-drop state. *)

val dropped : t -> int
(** Lines lost in the {e current} outage (0 once recovered — the total
    was written into the [Sink_degraded] marker). *)

val close : t -> unit
(** Flush and close a file sink — subsequent {!record}s through it are
    dropped. Idempotent; a no-op for null and buffer sinks. *)
