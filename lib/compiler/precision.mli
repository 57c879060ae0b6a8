(** Error tolerance → bit precision: the Sakr analysis (paper §4.4,
    Eq. (4)).

    Given the trained model's quantization-noise gains E_A (activations)
    and E_W (weights), the mismatch probability of the fixed-point model
    is bounded by p_m ≤ Δ_A²·E_A + Δ_W²·E_W with
    Δ = 2^-(B-1). PROMISE stores weights at B_W = 7 magnitude bits; the
    pass solves for the minimal activation precision B_A, which then
    drives the swing selection (Eq. (3), {!Swing_opt}). *)

type stats = { ea : float; ew : float }

val pp_stats : Format.formatter -> stats -> unit

(** [of_mlp mlp data] — estimate (E_A, E_W) from a trained model
    ({!Promise_ml.Mlp.sakr_stats}). *)
val of_mlp : Promise_ml.Mlp.t -> Promise_ml.Dataset.labeled array -> stats

val weight_bits : int
(** 7 (8-bit storage including sign). *)

(** [aggregate_bits stats ~pm ~bw] — the output precision B the
    aggregation must deliver: [min_activation_bits], since each Task's
    digitized aggregate becomes the next Task's (or decision's)
    activation. *)
val aggregate_bits : stats -> pm:float -> bw:int -> (int, string) result

(** {2 Test hooks} *)

module For_tests : sig
  (** [bound stats ~ba ~bw] — the Eq. (4) right-hand side. *)
  val bound : stats -> ba:int -> bw:int -> float

  (** [min_activation_bits stats ~pm ~bw] — smallest B_A (in 1..16) with
      [bound ≤ pm]; [Error] when even B_A = 16 cannot meet [pm] (the
      weight term alone exceeds the budget). *)
  val min_activation_bits : stats -> pm:float -> bw:int -> (int, string) result
end
