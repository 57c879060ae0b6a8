(** Matched filtering (Table 2: gunshot detection). The filter weights
    are the (time-reversed) signal template; detection thresholds the
    correlation — on PROMISE a multiply/sum Task with a Class-4
    threshold. *)

type t = { weights : Linalg.vec; threshold : float }

(** [make ~template ~threshold] — filter for a known template. *)
val make : template:Linalg.vec -> threshold:float -> t

(** [calibrate_threshold ~template data] — midpoint between mean
    positive and mean negative correlation over labeled windows. *)
val calibrate_threshold : template:Linalg.vec -> Dataset.labeled array -> float

val accuracy : t -> Dataset.labeled array -> float
