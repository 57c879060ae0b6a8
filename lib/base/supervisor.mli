(** Supervised execution of independent work items.

    The harness layer PR 1 gave the simulated hardware, applied to the
    software around it: every unit of work in a long-running campaign
    runs under a monotonic-clock deadline, a bounded {!Retry} policy
    with deterministic backoff, and an {!Incident} trail — and a work
    item that exhausts its budget is {e quarantined} (reported as a
    typed [Error.t] in its result slot) instead of aborting its
    siblings.

    Two timeout mechanisms cooperate:
    - a {e live watchdog} domain scans the in-flight items of a
      {!map_result} every 50 ms and logs a [Timeout] incident the
      moment an item is overdue (observability while the item is still
      wedged — an OCaml domain cannot be preempted, so a truly stuck
      item can only be reported, not killed, until the process is
      restarted and resumes from its checkpoint);
    - a {e post-hoc check} measures each completed attempt against the
      deadline and converts an overdue attempt into a typed [Timeout]
      failure that enters the retry loop and eventually quarantines.

    Determinism: with no [timeout_ms] (the default) supervision never
    alters a result, so the bit-identical guarantees of the parallel
    engine are untouched. Deadlines trade that for protection — they
    make results depend on wall-clock behavior, which is exactly what
    the operator asks for with [--timeout-ms]. *)

type config = private {
  timeout_ms : float option;
      (** per-attempt deadline; [None] = off. An overdue attempt
          becomes a [Timeout] failure. *)
  retry : Retry.policy;
  incidents : Incident.t;
  clock : unit -> int64;  (** monotonic ns; injectable for tests *)
  sleep : float -> unit;  (** backoff sleep (ms); injectable *)
  live_watchdog : bool;  (** spawn the scanning domain in map_result *)
}

val config :
  ?timeout_ms:float ->
  ?retry:Retry.policy ->
  ?incidents:Incident.t ->
  ?clock:(unit -> int64) ->
  ?sleep:(float -> unit) ->
  ?live_watchdog:bool ->
  unit ->
  config
(** Defaults: no deadline, no retries ([Retry.no_retry ~seed:0]), null
    incident sink, real monotonic clock and sleep, live watchdog on (it
    only runs when a deadline is set). *)

val supervise :
  config ->
  label:string ->
  (attempt:int -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** One unit of work under the config's deadline/retry/incident
    policy. Exceptions raised by the work function are captured
    (message + backtrace in the error context), never propagated. On
    exhaustion the final error carries the item label and a
    [Quarantine] incident is logged. *)

val map_result :
  ?pool:Pool.t ->
  config ->
  label:(int -> string) ->
  ('a -> ('b, Error.t) result) ->
  'a list ->
  ('b, Error.t) result list
(** Supervised {!Pool.map_list}: every item runs under {!supervise},
    in input order, and a quarantined item occupies its result slot as
    [Error] while every sibling still completes. The live watchdog (if
    armed) monitors the whole map. *)

(** {2 Cooperative stop (SIGINT / SIGTERM)} *)

type stop
(** A stop request flag shared between signal handlers and the
    executors ({!Workload.run_local}, {!Fleet.run}): handlers only set
    an atomic — checkpoint flushing happens at the next chunk boundary
    in the executor, where it is safe. *)

val never_stop : unit -> stop
(** A flag nothing sets (the default for library callers). *)

val install_stop_signals : unit -> stop
(** Install [Signal_handle]s for SIGINT and SIGTERM that set the flag.
    Call once, from a CLI main, before starting supervised work. *)

val request_stop : stop -> unit
(** Set the flag programmatically (tests, embedding). *)

val stop_requested : stop -> bool

val stop_signal : stop -> int option
(** The signal number that set the flag, when a handler did. *)

val signal_name : int -> string
(** ["sigint"] / ["sigterm"] / ["sighup"] for the OCaml signal
    numbers, the raw number otherwise (incident-log readability). *)

val exit_code : stop -> int
(** The conventional exit status of a run interrupted through the flag:
    143 when SIGTERM set it, 130 otherwise (SIGINT or a request). *)

(** {2 Sessions}

    What a long-running driver (campaign, report, bench) needs to run
    supervised: the per-item policy, where to checkpoint, whether to
    resume, and the stop flag to poll at chunk boundaries. *)

type session = private {
  sup : config;
  checkpoint : string option;  (** checkpoint path; [None] = no persistence *)
  resume : bool;  (** load the checkpoint before starting *)
  stop : stop;
}

val session :
  ?sup:config ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?stop:stop ->
  unit ->
  session

val plain : session
(** No deadline, no retries, no checkpoint, no stop: supervised
    drivers behave exactly like their unsupervised ancestors under
    this session. *)
