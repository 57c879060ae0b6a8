(** Spatial random error of the analog read path (paper §4.4).

    The output of aREAD at swing [s] for a stored (normalized) value
    [w ∈ [-1, 1)] follows [N(w, (|w| · f(s))²)] where [f] is
    {!Swing.noise_factor}. Deterministic non-idealities live in {!Lut};
    this module models only the process-variation noise. *)

type t

(** [create ~rng ()] — a noise source drawing from [rng]. *)
val create : rng:Rng.t -> unit -> t

(** [disabled] — an ideal (noise-free) source, for functional
    validation runs (paper §5, "architecture-level validation"). *)
val disabled : t

(** [rng t] — the underlying stream ([None] when disabled), for fast
    paths that pre-compute {!sigma} per stored code and then draw
    [Rng.gaussian_scaled rng ~mu ~sigma] themselves; with the same
    sigma values this is draw-for-draw identical to {!aread}. *)
val rng : t -> Rng.t option

(** [sigma ~swing ~w] — the aREAD standard deviation [|w| · f(swing)]. *)
val sigma : swing:int -> w:float -> float

(** [aread t ~swing w] — one noisy analog read sample of [w]. *)
val aread : t -> swing:int -> float -> float

(** [aggregate_sigma ~swing ~n] — σ of the charge-shared mean of [n]
    worst-case (|w| = 1) reads: [f(swing) /. sqrt n] (paper Eq. 3). *)
val aggregate_sigma : swing:int -> n:int -> float

(** {2 Test hooks} *)

module For_tests : sig
  (** [aread_vector t ~swing ws] — element-wise {!aread} (fresh noise per
      element, modeling independent per-column process variation). *)
  val aread_vector : t -> swing:int -> float array -> float array
end
