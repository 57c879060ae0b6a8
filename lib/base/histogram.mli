(** A bounded-memory log-linear histogram for latency and size
    distributions.

    Recording a sample is O(1) into a fixed array of buckets — 64
    linear buckets per power of two — so a long-running service can
    track millions of latencies without retaining them: integer values
    below 64 land in exact buckets, larger values in buckets whose
    relative width is at most 1/32 (~3%). Percentiles use the
    nearest-rank definition over the bucket counts and report the
    bucket's upper bound, so a reported p99 is never below the true
    p99 and overshoots it by at most the bucket width.

    Samples are non-negative (negative values clamp to zero) and are
    truncated to integers on entry — nanoseconds and batch sizes, not
    fractions. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample ([Float.to_int], clamped to [>= 0]). *)

val mean : t -> float
(** Exact mean of the recorded samples (0 when empty). *)

val max_value : t -> float
(** Exact extremes of the recorded samples (0 when empty). *)

val percentile : t -> float -> float
(** [percentile t q] — the nearest-rank [q]-quantile ([q] clamped to
    [0..1]; rank [ceil (q * count)], at least 1): the upper bound of
    the bucket holding that rank. 0 when empty. *)

val buckets : t -> (float * int) list
(** Non-empty buckets, ascending: (upper-bound value, count). *)
