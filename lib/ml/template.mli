(** Template matching (Table 2: face recognition against candidate
    identities; paper §3.4's running example). *)

type metric = L1 | L2

(** [recognition_accuracy ~metric ~candidates queries] — fraction of
    (query, true identity) pairs resolved to the right candidate. *)
val recognition_accuracy :
  metric:metric ->
  candidates:Linalg.mat ->
  (Linalg.vec * int) array ->
  float

(** {2 Test hooks} *)

module For_tests : sig
  (** [nearest ~metric ~candidates x] — (index, distance) of the closest
      candidate (the paper's j_opt = argmin_j Σ |x - w_j|). *)
  val nearest :
    metric:metric -> candidates:Linalg.mat -> Linalg.vec -> int * float
end
