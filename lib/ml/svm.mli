(** Linear SVM (Table 2: face detection, MIT-CBCL-like data).

    Trained with the Pegasos stochastic sub-gradient method; inference
    is a single dot product plus sign — exactly the PROMISE SVM kernel
    (vecOp = multiply, redOp = sum, f() = sign/threshold). *)

type t = { weights : Linalg.vec; bias : float }

(** [train rng ~data ~epochs ~lambda] — labels must be 0/1. *)
val train :
  Promise_analog.Rng.t ->
  data:Dataset.labeled array ->
  epochs:int ->
  lambda:float ->
  t

val accuracy : t -> Dataset.labeled array -> float

(** [augmented_weights t] — weights with the bias appended, for running
    on PROMISE with a constant-1 last input element. *)
val augmented_weights : t -> Linalg.vec
