(** Deterministic analog non-idealities as look-up tables (paper §5).

    The paper extracts each analog block's deterministic transfer-curve
    error from silicon measurements into LUTs and folds them into the
    behavioral models. We build the same structure from parametric
    integral-non-linearity (INL) curves: a LUT maps an ideal analog value
    in [[-1, 1]] to the value the block actually produces, with linear
    interpolation between entries. Deterministic errors are tolerable at
    the algorithm level because re-training absorbs them (§4.4); tests
    assert they stay small and reproducible. *)

type t

(** [identity] — the ideal transfer curve. *)
val identity : t

(** [apply t v] — look up [v] (clamped to [[-1, 1]]) with linear
    interpolation. *)
val apply : t -> float -> float

(** [table t] — a copy of the raw entry table, evenly spaced over
    [[-1, 1]], for callers that pre-sample or inline the interpolation
    ({!Promise_arch.Kernel}). [apply_raw (table t) v ≡ apply t v]. *)
val table : t -> float array

(** [max_deviation t] — max |apply t v - v| over the table entries. *)
val max_deviation : t -> float

(** The default silicon-like transfer curves used by the bank model. *)
module Silicon : sig
  val aread : t
  val absolute : t
  val square : t
  val mult : t
  val compare_ : t
end

(** {2 Test hooks} *)

module For_tests : sig
  (** [of_function ?entries f] — tabulate [f] over [[-1, 1]].
      [entries] defaults to 256 (8-bit resolution). *)
  val of_function : ?entries:int -> (float -> float) -> t

  (** [compressive ~alpha] — odd-symmetric cubic compression
      [x -> x - alpha * x^3], the dominant INL shape of charge-domain
      multipliers; [alpha] around 0.02 matches the <2% deviation of the
      silicon-validated blocks. *)
  val compressive : alpha:float -> t

  (** [with_offset ~offset t] — adds a constant offset (e.g. comparator
      offset) after [t]. *)
  val with_offset : offset:float -> t -> t
end
