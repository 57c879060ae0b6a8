(** k-means clustering (Lloyd's algorithm).

    The paper notes (§3.3) that k-means runs inefficiently on PROMISE
    because the ISA omits element-wise write-back: the {e assignment}
    step is a perfect fit (L2 distances to k centroids + argmin), but
    the {e update} step must round-trip through the host each
    iteration. This module provides the float reference; the benchmark
    harness's extension-ablation section prices the PROMISE-assisted
    variant. *)

type t = { centroids : Linalg.mat }

(** [fit rng ~data ~k ~iterations] — Lloyd's algorithm with k-means++ -
    style farthest-point seeding; empty clusters re-seed from the
    farthest point. *)
val fit :
  Promise_analog.Rng.t ->
  data:Linalg.vec array ->
  k:int ->
  iterations:int ->
  t

(** [update ~k ~data ~assignments] — the host-side centroid update:
    mean of each cluster's members (empty clusters keep a zero
    vector and are reported). *)
val update :
  k:int -> data:Linalg.vec array -> assignments:int array ->
  Linalg.mat * int list

(** [inertia t data] — Σ squared distance to the assigned centroid. *)
val inertia : t -> Linalg.vec array -> float

(** {2 Test hooks} *)

module For_tests : sig
  (** [assign t x] — index of the nearest centroid (L2). *)
  val assign : t -> Linalg.vec -> int
end
