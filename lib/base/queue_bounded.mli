(** A bounded FIFO with typed admission rejection.

    The admission-control primitive of the serving layer: producers
    offer work with {!try_push}, and when the queue is at capacity the
    offer fails {e immediately} with a typed [Capacity] error instead
    of blocking — backpressure is a response the caller can forward to
    a client, not a stalled thread. Operations are mutex-serialized so
    a socket loop and a dispatcher domain can share one queue, and the
    counters ({!stats}) survive into the service's metrics: every
    accepted, rejected and drained item is accounted for, along with
    the high-water depth the queue ever reached. *)

type 'a t

val create : capacity:int -> ('a t, Error.t) result
(** [create ~capacity] — an empty queue admitting at most [capacity]
    items at once. [Invalid_operand] unless [1 <= capacity <= 1_048_576]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val try_push : 'a t -> 'a -> (unit, Error.t) result
(** Admit one item, or fail with a typed [Capacity] error carrying the
    queue's depth and capacity — never blocks, never drops silently. *)

val peek_opt : 'a t -> 'a option
(** The oldest item without removing it, [None] when empty. The serving
    layer uses this for dwell-based shedding: the head's age bounds the
    head-of-line blocking every later item will suffer. *)

val pop_opt : 'a t -> 'a option
(** Remove and return the oldest item, [None] when empty. *)

val drain : ?max:int -> 'a t -> 'a list
(** [drain ?max t] — pop up to [max] items (default: everything),
    oldest first. *)

type stats = {
  pushed : int;  (** admissions *)
  rejected : int;  (** failed {!try_push} offers *)
  popped : int;
  max_depth : int;  (** high-water mark of {!length} *)
}

val stats : 'a t -> stats
