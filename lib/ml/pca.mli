(** Principal component analysis by power iteration with deflation
    (Table 2: four-feature extraction for face detection).

    On PROMISE, projecting a sample onto the principal components is a
    matrix-vector product: one AbstractTask with the component matrix as
    W (vecOp = multiply, redOp = sum). *)

type t = {
  components : Linalg.mat;  (** n_components × dim, orthonormal rows *)
  mean : Linalg.vec;
}

(** [fit rng ~data ~n_components ~iterations] — covariance implicit
    (X'X products on the fly). *)
val fit :
  Promise_analog.Rng.t ->
  data:Linalg.vec array ->
  n_components:int ->
  iterations:int ->
  t

(** [project t x] — the [n_components] features of (x − mean). *)
val project : t -> Linalg.vec -> Linalg.vec
