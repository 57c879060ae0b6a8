(** Capacitor droop: analog values stored on capacitors degrade over time
    (paper §3.2). The bit-line is worst: every bit-cell in a column leaks
    into it, up to 0.6 %/ns. Idle pipeline slots therefore cost accuracy,
    which is why PROMISE keeps the clock period [TP] tight. *)

(** Droop rate of the (smaller, better isolated) aSD holding capacitor. *)
val capacitor_rate_per_ns : float

(** [bitline ~idle_ns v] — value [v] after [idle_ns] nanoseconds of
    exponential droop toward 0 at the bit-line rate (0.6 %/ns):
    [v *. exp (-. rate *. idle_ns)]. *)
val bitline : idle_ns:float -> float -> float

(** [bitline_factor ~idle_ns] — the multiplier alone, so a
    per-task-constant idle time pays the [exp] once;
    [bitline ~idle_ns v ≡ v *. bitline_factor ~idle_ns] bit-for-bit. *)
val bitline_factor : idle_ns:float -> float

(** {2 Test hooks} *)

module For_tests : sig
  (** Worst-case bit-line droop rate, fraction per ns (paper: 0.6 %/ns). *)
  val bitline_rate_per_ns : float

  (** [droop ~rate_per_ns ~ns v] — value [v] after [ns] nanoseconds of
      exponential droop toward 0: [v *. exp (-. rate *. ns)]. *)
  val droop : rate_per_ns:float -> ns:float -> float -> float
end
