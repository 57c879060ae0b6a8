(** k-nearest-neighbor reference implementation (Table 2: hand-written
    character recognition, L1 and L2 distance kernels; sorting and
    majority vote run on the host, as the paper notes). *)

type metric = L1 | L2

(** [classify_from_distances ~k ~train dists] — host-side sorting +
    majority vote on externally computed distances (the PROMISE path). *)
val classify_from_distances :
  k:int -> train:Dataset.labeled array -> float array -> int

val accuracy :
  metric:metric ->
  k:int ->
  train:Dataset.labeled array ->
  Dataset.labeled array ->
  float

(** {2 Test hooks} *)

module For_tests : sig
  (** [classify ~metric ~k ~train x] — majority vote over the [k] nearest
      (ties broken toward the nearer neighbor). *)
  val classify :
    metric:metric -> k:int -> train:Dataset.labeled array -> Linalg.vec -> int
end
