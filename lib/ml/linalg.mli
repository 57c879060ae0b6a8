(** Dense float vectors and matrices (row-major) — the reference
    numeric substrate for the ML algorithms of Table 1/2. *)

type vec = float array
type mat = float array array  (** rows of equal length *)

val dot : vec -> vec -> float
val l1_distance : vec -> vec -> float
val l2_distance : vec -> vec -> float
(** Squared Euclidean distance (the paper's L2 kernel: Σ (w-x)²). *)

val sub : vec -> vec -> vec
val scale : float -> vec -> vec
val norm2 : vec -> float
val mean : vec -> float
val argmin : vec -> int
val argmax : vec -> int

val mat_vec : mat -> vec -> vec
(** [mat_vec m x] — m · x (rows of m dotted with x). *)

val max_abs : vec -> float
val mat_max_abs : mat -> float
