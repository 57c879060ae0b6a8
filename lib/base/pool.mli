(** A fixed-size domain work pool with deterministic result ordering.

    The pool exploits OCaml 5 Domains for the coarse-grained
    parallelism of the simulator: independent banks of a multi-bank
    Task, independent report sections, independent fault-campaign
    cells. Results always come back in input order, and the work
    functions passed to {!map_list} / {!map_array} are expected to be
    deterministic functions of their input (every stochastic model in
    the simulator draws from an explicit per-bank {!Promise: rng}
    stream), so a run is bit-for-bit identical at any [jobs] count.

    A pool of [jobs = 1] never spawns a domain and runs everything in
    the caller; this is the reference ordering the parallel paths are
    tested against.

    Nested use is safe: a map issued from inside a pool task runs
    sequentially in that task's domain instead of deadlocking on the
    shared workers. *)

type t

exception
  Item_failure of {
    index : int;  (** which input element blew up *)
    exn : exn;  (** the original exception *)
    backtrace : string;  (** the item's captured backtrace, printed *)
  }
(** What {!map_array}/{!map_list} raise when a work item escapes with
    an exception: the failing item's index and its captured backtrace
    travel with the original exception, so a campaign failure names
    the exact grid cell instead of an anonymous ["Failure boom"].
    Raised identically by the sequential and parallel paths (a nested
    failure wraps once per map level); a printer is registered. *)

val sequential : t
(** The jobs = 1 pool: no domains, inline execution. *)

val jobs : t -> int
(** Concurrency of the pool (1 for {!sequential}). *)

val is_parallel : t -> bool
(** [jobs t > 1]. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f arr] — apply [f] to every element, possibly
    concurrently; [(map_array t f arr).(i) = f arr.(i)] positionally.
    The first exception raised by any [f] is re-raised in the caller
    (with its backtrace) after the batch has drained, wrapped in
    {!Item_failure} carrying the item index. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List analogue of {!map_array}. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] — [create], run [f], always [shutdown]. *)

(** {2 Test hooks} *)

module For_tests : sig
  val create : jobs:int -> t
  (** [create ~jobs] — a pool running at most [jobs] tasks concurrently
      ([jobs - 1] worker domains plus the calling domain). Raises
      [Invalid_argument] unless [1 <= jobs <= 64]. [create ~jobs:1]
      returns a pool equivalent to {!sequential}. *)

  val default_jobs : unit -> int
  (** [PROMISE_JOBS] from the environment when set and positive,
      otherwise [Domain.recommended_domain_count ()], clamped to 64. *)

  val shutdown : t -> unit
  (** Join the worker domains. Idempotent; {!sequential} is a no-op.
      Using the pool after [shutdown] raises [Invalid_argument]. *)
end
