(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic model in the simulator draws from an explicit [t]
    so runs are reproducible bit-for-bit from a seed, independently of
    the global [Random] state. *)

type t

(** [create seed] — a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** [split_n t n] — [n] independent generators, identical to calling
    [split t] [n] times in ascending order. Used to give each bank of
    a machine its own stream so parallel bank simulation draws the
    same noise samples as sequential simulation. *)
val split_n : t -> int -> t array

(** [int t bound] — uniform in [\[0, bound)]. Raises on [bound <= 0]. *)
val int : t -> int -> int

(** [float t] — uniform in [\[0, 1)]. *)
val float : t -> float

(** [uniform t ~lo ~hi] — uniform in [\[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [gaussian t] — standard normal via Box-Muller (cached pair). *)
val gaussian : t -> float

(** [gaussian_scaled t ~mu ~sigma] — N(mu, sigma²). *)
val gaussian_scaled : t -> mu:float -> sigma:float -> float

(** A float64 bigarray vector — the batched kernels' noise plane. *)
type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [gaussian_fill_ba t dst ~len] fills [dst.{0..len-1}] with standard
    normals, consuming the stream exactly as [len] successive
    {!gaussian} calls (or any composition of fills totalling [len]
    draws) would — same values, same final cache state — with zero
    allocations. The fused kernels draw the noise for a whole batch of
    decisions through one call, into a bigarray plane that outlives the
    minor heap. Raises [Invalid_argument] when [len] exceeds [dst]'s
    length. *)
val gaussian_fill_ba : t -> ba -> len:int -> unit

(** [shuffle t arr] — in-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** {2 Test hooks} *)

module For_tests : sig
  (** [split t] derives an independent generator (and advances [t]). *)
  val split : t -> t

  (** [copy t] duplicates the current state without advancing it. *)
  val copy : t -> t

  (** [bits64 t] — next raw 64-bit value. *)
  val bits64 : t -> int64
end
