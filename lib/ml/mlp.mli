(** Multilayer perceptron: the DNN benchmark of Table 2 and the model
    whose back-propagation statistics (E_A, E_W) feed the Sakr precision
    analysis (paper §4.4).

    Layers are bias-free weight matrices followed by an activation, so a
    trained network maps 1:1 onto a pipeline of PROMISE AbstractTasks
    (vecOp = multiply, redOp = sum, digitalOp = sigmoid / ReLU). *)

type activation = Sigmoid | Relu

type layer = {
  weights : Linalg.mat;  (** fan_out × fan_in *)
  activation : activation;
}

type t = { layers : layer array }

(** [create rng ~sizes ~hidden_activation] — e.g.
    [~sizes:[784; 512; 256; 128; 10]]; He/Xavier-style random init. The
    output layer always uses [Sigmoid] (monotone, so argmax matches the
    softmax decision). *)
val create :
  Promise_analog.Rng.t -> sizes:int list -> hidden_activation:activation -> t

(** [train t rng ~data ~epochs ~lr] — in-place SGD with softmax
    cross-entropy on the logits; data order shuffled each epoch. *)
val train :
  t ->
  Promise_analog.Rng.t ->
  data:Dataset.labeled array ->
  epochs:int ->
  lr:float ->
  unit

val accuracy : t -> Dataset.labeled array -> float

(** Sakr-style quantization-noise gains of the trained model, estimated
    over [data] (paper Eq. (4); see DESIGN.md):
    p_m ≤ Δ_A²·E_A + Δ_W²·E_W, where the expectations are of the
    squared gradient of the top-2 logit margin wrt activations (E_A)
    and weights (E_W), normalized by 12·margin². *)
val sakr_stats : t -> Dataset.labeled array -> float * float

(** {2 Test hooks} *)

module For_tests : sig
  (** [forward t x] — activations of every layer, input first
      (length [n_layers + 1]); the last entry is the output. *)
  val forward : t -> Linalg.vec -> Linalg.vec array

  (** [logits t x] — final pre-activation values. *)
  val logits : t -> Linalg.vec -> Linalg.vec
end
