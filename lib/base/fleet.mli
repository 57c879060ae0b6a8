(** Crash-isolated fleet execution: sharded campaigns across forked
    worker processes, supervised and resumable.

    Everything {!Supervisor} protects runs in {e one} process: a
    segfault, an OOM kill or a [kill -9] still loses the whole run.
    [Fleet] is the next isolation ring out. It forks [workers] OS
    processes, shards a workload of [shards] independent units across
    them over {!Ipc} pipes, and supervises the processes themselves:

    - {e liveness}: each worker sends heartbeats from a side domain;
      a worker silent past [liveness_timeout_ms] is SIGKILLed and
      handled like any other death;
    - {e deadlines}: a shard in flight past [shard_timeout_ms] gets
      its worker SIGKILLed (a forked worker, unlike an OCaml domain,
      {e can} be killed);
    - {e restart}: a dead worker (exit, signal, kill -9) is replaced
      after a deterministic {!Retry} backoff and its in-flight shard
      is re-queued, up to [max_restarts] attempts per shard;
    - {e quarantine}: a shard whose workers keep dying is isolated as
      a typed [Error] slot ([Retry_exhausted]) — its siblings finish;
    - {e checkpointing}: with a [checkpoint_dir], every completed
      shard is persisted through {!Checkpoint} as its own file, so a
      killed or preempted fleet resumes only its incomplete shards.

    Determinism: the shard function must depend only on its shard
    index (derive per-shard RNG streams with {!shard_seed}), and
    results are aggregated shard-major whatever the completion order —
    so a fleet that lost workers, was killed and resumed produces the
    same result array, bit for bit, as an uninterrupted run. *)

type chaos =
  | No_chaos
  | Kill_one
      (** self-test mode: once mid-run, SIGKILL a busy worker and let
          supervision prove the run still completes identically *)

type config = private {
  workers : int;  (** forked worker processes (clamped to [shards]) *)
  shard_timeout_ms : float option;  (** per-shard deadline; None = off *)
  liveness_timeout_ms : float option;
      (** max heartbeat silence before a worker is presumed wedged *)
  heartbeat_ms : float;  (** worker heartbeat period *)
  max_restarts : int;  (** extra attempts per shard after its first *)
  restart_backoff : Retry.policy;  (** wait before respawning a worker *)
  incidents : Incident.t;
  checkpoint_dir : string option;
  resume : bool;  (** load per-shard checkpoints before starting *)
  chaos : chaos;
  stop : Supervisor.stop;  (** polled every scheduler tick *)
  sleep : float -> unit;  (** backoff sleep (ms); injectable for tests *)
}

val config :
  ?workers:int ->
  ?shard_timeout_ms:float ->
  ?liveness_timeout_ms:float ->
  ?heartbeat_ms:float ->
  ?max_restarts:int ->
  ?restart_backoff:Retry.policy ->
  ?incidents:Incident.t ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?chaos:chaos ->
  ?stop:Supervisor.stop ->
  ?sleep:(float -> unit) ->
  unit ->
  (config, Error.t) result
(** Defaults: 2 workers, no deadlines, 100 ms heartbeats, 2 restarts
    per shard, 50-ms-base backoff (seed 0), null incident sink, no
    checkpointing, no chaos, a stop flag nothing raises. Validated:
    [workers] in 1..64, [heartbeat_ms] > 0, [max_restarts] >= 0,
    timeouts positive when given. *)

val ranges : shards:int -> items:int -> (int * int) array
(** [ranges ~shards ~items] — [items] split into at most [shards]
    contiguous [(offset, length)] slices whose lengths differ by at
    most one; empty slices are dropped (so the array can be shorter
    than [shards] when [items < shards]). *)

type shard_timing = {
  t_attempts : int;  (** 1 + restarts this shard consumed *)
  t_resumed : bool;  (** loaded from a checkpoint, not computed *)
}

type summary = {
  shards : int;
  workers : int;  (** effective worker count after clamping *)
  restarts : int;  (** worker deaths observed (incl. chaos kills) *)
  resumed : int;  (** shards loaded from checkpoints *)
  quarantined : int;  (** shards isolated as [Error] slots *)
  total_ms : float;  (** aggregate wall time of the fleet run *)
  timings : shard_timing array;  (** shard-major *)
}

type 'r outcome =
  | Fleet_done of ('r, Error.t) result array * summary
      (** every shard accounted for, shard-major; [Error] slots are
          quarantined shards *)
  | Fleet_interrupted of { completed : int; total : int }
      (** the stop flag was raised; completed shards are in the
          checkpoint dir (when configured) *)
  | Fleet_rejected of Error.t
      (** invalid request, or a checkpoint from a different run
          configuration *)

val run :
  ?on_shard_done:(shard:int -> completed:int -> total:int -> unit) ->
  config ->
  digest:string ->
  shards:int ->
  f:(shard:int -> ('r, Error.t) result) ->
  'r outcome
(** Execute [f] for every shard index in [0 .. shards-1] across the
    worker fleet. [f] runs in a forked child; it must be deterministic
    in [shard] and its result must survive [Marshal] (plain data, no
    closures). [digest] guards the checkpoints ({!Checkpoint.digest_of_config});
    a checkpoint dir holding shards of a different digest rejects the
    run. A fleet whose slots are all [Ok] removes its checkpoints; any
    [Error] slot (quarantined, or [f] returned [Error]) keeps its
    siblings' checkpoints so a later [resume] retries only the
    failures.
    SIGPIPE is ignored from the first worker fork until the last
    worker is reaped ({!Ipc.with_sigpipe_ignored}): worker death must
    surface as a typed error, not kill the parent.

    [on_shard_done] fires in the parent once per shard slot as it is
    filled — computed, resumed-from-checkpoint shards excluded, or
    quarantined — for progress output and test instrumentation.

    OCaml 5 forbids [Unix.fork] in a process that has ever spawned
    another domain, so [run] must be called before any {!Pool} pool or
    {!Supervisor} live watchdog exists in the process. The workers'
    own heartbeat domains live in the children and do not restrict the
    parent. *)

(** {2 Test hooks} *)

module For_tests : sig
  val shard_seed : seed:int -> shard:int -> int
  (** A per-shard split of a campaign seed (splitmix64 finalizer):
      deterministic, and distinct shards get decorrelated streams. *)
end
