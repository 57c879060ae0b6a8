(** Deterministic synthetic datasets standing in for MNIST, MIT-CBCL
    faces, and the gunshot recordings of Table 2 (see DESIGN.md,
    "Substitutions"). All generators are pure functions of the supplied
    {!Promise_analog.Rng.t}, and produce features in [-1, 1) suitable for
    8-bit quantization. *)

type labeled = { features : float array; label : int }

(** Hand-written-digit-like data: each class is a fixed smooth prototype
    pattern (a sum of Gaussian bumps drawn from a class-seeded stream);
    samples perturb it by translation and pixel noise. *)
module Digits : sig
  (** [generate rng ~width ~height ~n] — [n] labeled samples, classes
      round-robin. *)
  val generate :
    Promise_analog.Rng.t -> width:int -> height:int -> n:int -> labeled array

  module For_tests : sig
    (** [prototype ~cls ~width ~height] — the class template. *)
    val prototype : cls:int -> width:int -> height:int -> float array
  end
end

(** Face-like data for recognition (identities) and detection
    (face / non-face). *)
module Faces : sig
  (** [identities rng ~width ~height ~n] — [n] identity templates: a
      shared face structure (eyes/mouth bumps) plus per-identity
      variation. *)
  val identities :
    Promise_analog.Rng.t -> width:int -> height:int -> n:int -> float array array

  (** [query rng ~width ~height templates ~identity] — a perturbed view
      of one identity (the template-matching / k-NN query). *)
  val query :
    Promise_analog.Rng.t ->
    width:int ->
    height:int ->
    float array array ->
    identity:int ->
    float array

  (** [detection rng ~width ~height ~n] — face (label 1) vs non-face
      (label 0) samples for SVM / PCA detection. *)
  val detection :
    Promise_analog.Rng.t -> width:int -> height:int -> n:int -> labeled array
end

(** Gunshot-like audio bursts for matched filtering. *)
module Gunshot : sig
  (** [template rng ~len] — the canonical impulse: an exponentially
      decaying oscillation, unit peak. *)
  val template : Promise_analog.Rng.t -> len:int -> float array

  (** [windows rng ~template ~n ~snr] — [n] windows, label 1 when the
      (scaled) template is embedded in background noise at [snr]
      amplitude ratio, label 0 for noise-only (including low-frequency
      rumble decoys). *)
  val windows :
    Promise_analog.Rng.t ->
    template:float array ->
    n:int ->
    snr:float ->
    labeled array
end

(** 2-D synthetic data for linear regression. *)
module Linreg2d : sig
  (** [generate rng ~n ~slope ~intercept ~noise] — (u, v) with
      v = slope·u + intercept + N(0, noise²), u uniform in [-0.9, 0.9]. *)
  val generate :
    Promise_analog.Rng.t ->
    n:int ->
    slope:float ->
    intercept:float ->
    noise:float ->
    float array * float array
end

(** [train_test_split arr ~test_fraction] — deterministic prefix split
    (generators already interleave classes). *)
val train_test_split :
  labeled array -> test_fraction:float -> labeled array * labeled array
