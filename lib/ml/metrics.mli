(** Classification metrics, including the paper's mismatch probability
    p_m (Eq. (2)): the accuracy an algorithm loses when it runs on
    PROMISE instead of the exact model. *)

(** [mismatch_probability ~reference ~promise] — fraction of samples
    whose decision changed between the exact model and the PROMISE run
    (an upper bound witness for p_model − p_PROMISE ≤ p_m). *)
val mismatch_probability : reference:int array -> promise:int array -> float

(** [geometric_mean xs] — of positive values. *)
val geometric_mean : float list -> float
