(** Bounded retry with exponential backoff and deterministic jitter.

    The backoff schedule is a {e pure function} of the policy: delay
    [k] (before attempt [k + 1], 1-based) is

    [min max_delay_ms (base_delay_ms * 2^(k-1)) * (1 + jitter * u_k)]

    where [u_k] in [[-1, 1)] is drawn from a splitmix64 stream seeded
    by [(seed, k)]. Jitter decorrelates concurrent retriers without
    sacrificing reproducibility: rerunning a campaign with the same
    seed replays the exact same waits, so an incident log from a
    failed run can be diffed against its rerun. *)

type policy = private {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay_ms : float;  (** backoff before the first retry (>= 0) *)
  max_delay_ms : float;  (** cap on the un-jittered delay *)
  jitter : float;  (** jitter fraction in [0, 1] *)
  seed : int;  (** jitter stream seed *)
}

val policy :
  ?max_attempts:int ->
  ?base_delay_ms:float ->
  ?max_delay_ms:float ->
  ?jitter:float ->
  seed:int ->
  unit ->
  (policy, Error.t) result
(** Validated constructor. Defaults: 3 attempts, 50 ms base, 2000 ms
    cap, 0.25 jitter. Errors ([Invalid_operand]) on a non-positive
    attempt count, negative delays, a cap below the base, or jitter
    outside [0, 1]. *)

val no_retry : seed:int -> policy
(** One attempt, no backoff: supervision without retries. *)

val backoff_ms : policy -> attempt:int -> float
(** [backoff_ms p ~attempt] — the wait after failed attempt [attempt]
    (1-based); only meaningful for [1 <= attempt < max_attempts].
    Deterministic and non-negative; at most
    [max_delay_ms * (1 + jitter)]. *)

val run :
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay_ms:float -> Error.t -> unit) ->
  policy ->
  (attempt:int -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** [run p f] — call [f ~attempt:1], then on [Error] sleep the
    backoff and retry, up to [max_attempts] calls in total.
    [on_retry] fires before each backoff sleep (incident logging).
    The final [Error] is returned with [attempts]/[code] context and
    the code promoted to [Retry_exhausted] when more than one attempt
    was allowed. [sleep] defaults to {!Clock.sleep_ms}; tests inject
    a recorder. [f] must not raise — supervised wrappers catch. *)

(** {2 Test hooks} *)

module For_tests : sig
  val schedule : policy -> float list
  (** All [max_attempts - 1] backoffs, in order. *)
end
