(** Hardware fault models for failure-injection testing.

    The paper's error analysis covers process-variation noise (random)
    and transfer-curve non-idealities (deterministic, re-trainable).
    This module adds the *hard* failure modes a deployed part can
    develop, so error paths and graceful-degradation behaviour are
    testable. A fault descriptor is a value: seedable (the X-REG
    transient model carries its own RNG seed), composable
    ({!compose}), and attached to a bank with
    {!Bank.set_faults}. Builders validate their parameters and reject
    out-of-range values with a typed {!Promise_core.Error.t}. *)

type transient = { seed : int; rate : float }
(** A seeded Bernoulli process: each X-REG element read flips one
    random bit with probability [rate]. *)

type t

(** No faults. *)
val none : t

val equal : t -> t -> bool

(** [with_stuck_lane t ~lane ~code] — lane [lane] of every word row
    reads as [code] on the analog path. [Error] when [lane] is outside
    the 128-lane bank width or [code] is not a signed 8-bit value
    (-128..127). *)
val with_stuck_lane :
  t -> lane:int -> code:int -> (t, Promise_core.Error.t) result

(** [with_dead_lane t ~lane] — the lane's bit-cell column is dead: it
    contributes 0 to every analog read. *)
val with_dead_lane : t -> lane:int -> (t, Promise_core.Error.t) result

(** [with_dead_bank t] — the whole bank is dead: analog reads are all
    zero and the digital read path returns zeros too. Recovery must
    exclude the bank. *)
val with_dead_bank : t -> t

(** [with_adc_offset t offset] — every ADC conversion is shifted by
    [offset] (in normalized analog units) before quantization. *)
val with_adc_offset : t -> float -> t

(** [with_dead_adc_units t n] — [n] of the bank's 8 ADC units are
    disabled. Values are unaffected; multi-iteration Tasks stall
    (visible as {!Trace.task_record.stall_cycles}). [Error] unless
    [0 <= n <= 8]. *)
val with_dead_adc_units : t -> int -> (t, Promise_core.Error.t) result

(** [with_xreg_flips t ~seed ~rate] — transient single-bit upsets on
    X-REG reads: each element read flips one random bit with
    probability [rate], drawn from a generator seeded by [seed].
    [Error] unless [rate] is in [0, 1]. *)
val with_xreg_flips :
  t -> seed:int -> rate:float -> (t, Promise_core.Error.t) result

(** [with_swing_drift t d] — the effective bit-line swing degrades by
    [d] codes (aging): a Task programmed at SWING [s] behaves like
    [max 0 (s - d)], raising the read-noise sigma. [Error] unless
    [0 <= d <= 7]. *)
val with_swing_drift : t -> int -> (t, Promise_core.Error.t) result

(** [with_leakage_mult t m] — bit-line leakage is [m] times the nominal
    0.6%/ns rate (excess droop during idle pipeline slots). [Error]
    unless [m >= 1]. *)
val with_leakage_mult : t -> float -> (t, Promise_core.Error.t) result

(** {2 Accessors} *)

val stuck_lanes : t -> (int * int) list
(** Sorted by lane. *)

val dead_lanes : t -> int list
val is_dead_bank : t -> bool
val adc_offset : t -> float
val xreg_flip : t -> transient option

(** [adc_units_available t] — [8 - dead_adc_units]. *)
val adc_units_available : t -> int

(** {2 Application (used by {!Bank})} *)

(** [apply_stuck t values] — overwrite stuck lanes with their stuck
    (normalized) values and dead lanes with 0; a dead bank zeroes the
    whole vector. Returns [values] itself when no lane faults.
    Idempotent. *)
val apply_stuck : t -> float array -> float array

(** [effective_swing t ~swing] — [max 0 (swing - drift)]. *)
val effective_swing : t -> swing:int -> int

(** [effective_idle_ns t ~idle_ns] — idle time scaled by the leakage
    multiplier (equivalent to scaling the leakage rate). *)
val effective_idle_ns : t -> idle_ns:float -> float

(** {2 Textual form} *)

(** {2 Test hooks} *)

module For_tests : sig
  val is_none : t -> bool

  (** [compose a b] — both fault sets at once; where they conflict
      (stuck codes, flip parameters), [b] wins. Offsets add, drifts add
      (saturating at 7), leakage multipliers multiply. *)
  val compose : t -> t -> t

  (** [faulty_lanes t] — every stuck or dead lane, sorted. *)
  val faulty_lanes : t -> int list

  (** [to_string t] — a canonical one-line description; {!of_string}
      inverts it exactly. *)
  val to_string : t -> string

  val of_string : string -> (t, Promise_core.Error.t) result
end
