(** Dense float vectors and matrices (row-major) — the reference
    numeric substrate for the ML algorithms of Table 1/2. *)

type vec = float array
type mat = float array array  (** rows of equal length *)

val mat_create : rows:int -> cols:int -> mat

val dot : vec -> vec -> float
val l1_distance : vec -> vec -> float
val l2_distance : vec -> vec -> float
(** Squared Euclidean distance (the paper's L2 kernel: Σ (w-x)²). *)

val hamming : vec -> vec -> float
(** Count of sign mismatches. *)

val add : vec -> vec -> vec
val sub : vec -> vec -> vec
val scale : float -> vec -> vec
val norm2 : vec -> float
val mean : vec -> float
val variance : vec -> float
val argmin : vec -> int
val argmax : vec -> int

val mat_vec : mat -> vec -> vec
(** [mat_vec m x] — m · x (rows of m dotted with x). *)

val mat_transpose : mat -> mat
val mat_rows : mat -> int
val mat_cols : mat -> int

val map : (float -> float) -> vec -> vec
val max_abs : vec -> float
val mat_max_abs : mat -> float

(** [outer_accumulate acc x y k] — acc += k · x yᵀ, in place. *)
val outer_accumulate : mat -> vec -> vec -> float -> unit
