(** One PROMISE bank: the analog portion of the pipeline, S1 (aREAD) →
    S2 (aSD) → S3 (aVD) → ADC (paper Fig. 3).

    A bank executes a Task one iteration at a time. The machine layer
    (Machine) sequences iterations, combines per-bank partials over the
    cross-bank rail and drives the TH unit.

    Analog gain staging: fused Class-1 add/subtract halves values and a
    Class-2 square squares that, so every analog node stays in [-1, 1];
    {!analog_scale} reports the factor the digital domain must multiply
    back (TH pre-gain). *)

type profile =
  | Ideal
  | Silicon
  | Custom of { lut : bool; leakage : bool }
      (** enable the deterministic error sources individually (the
          error-source ablation of the report) *)
(** [Ideal] — identity transfer curves, no leakage (functional
    validation, paper §5 "architecture-level"). [Silicon] — the LUT
    non-idealities and capacitor droop models ([Custom] with both). *)

type t

val create : ?profile:profile -> noise:Promise_analog.Noise.t -> unit -> t

val array : t -> Bitcell_array.t
val xreg : t -> Xreg.t
val profile : t -> profile

(** [noise t] — the bank's aREAD noise source (its private split RNG
    stream). The fused kernels ({!Kernel}) draw from it directly with
    pre-computed sigmas; sharing the object keeps the draw sequence
    identical to the scalar path's. *)
val noise : t -> Promise_analog.Noise.t

(** [set_faults t f] — inject hard faults ({!Faults}): stuck/dead lanes
    corrupt every analog read, a dead bank zeroes both read paths, the
    ADC offset shifts every conversion, swing drift degrades the
    effective SWING code, the leakage multiplier scales idle-slot
    droop, and the X-REG transient model (seeded from the descriptor)
    flips bits on X reads. *)
val set_faults : t -> Faults.t -> unit

val faults : t -> Faults.t

(** [stage_write_code t code] — append one 8-bit code into the write
    data buffer (the [DES = 11] Class-4 destination, paper Fig. 5(b));
    the next Class-1 [write] consumes the buffered lanes. *)
val stage_write_code : t -> int -> unit

(** The result of one iteration's analog chain. *)
type step =
  | Sample of float
      (** aVD mean over active lanes, digitized (the per-bank partial). *)
  | Digital_vector of int array
      (** digital read, or per-lane ADC when no aggregation. *)
  | Analog_vector of float array
      (** analog result left undigitized (no Class-3 ADC). *)
  | Idle  (** Class-1 none, or a write. *)

(** [analog_scale task] — true value = [analog_scale] × analog value. *)
val analog_scale : Promise_isa.Task.t -> float

(** [lut_for_profile profile select] — the transfer curve a profile
    applies: identity for [Ideal] / [Custom {lut = false}], [select ()]
    (a Silicon LUT) otherwise. Shared with {!Kernel} so both paths
    select curves by the same rule. *)
val lut_for_profile :
  profile -> (unit -> Promise_analog.Lut.t) -> Promise_analog.Lut.t

(** [run_iteration ?lane_mask t ~task ~iteration ~active_lanes ~adc_gain]
    — execute iteration [iteration] (0-based) of [task]:
    - W word-row address is [w_addr + iteration] (sequential increment,
      §3.3), wrapped modulo the array size;
    - X addresses circulate modulo [X_PRD + 1];
    - idle-slot leakage is applied in the [Silicon] profile using the
      task's TP;
    - [adc_gain] is the power-of-two analog range-matching gain ahead of
      the ADC (the sub-ranged read's range matching, see DESIGN.md): the
      aggregate is amplified by it before quantization and divided back
      after, so quantization noise shrinks by the same factor;
    - [lane_mask] (lane sparing, see {!Layout.spare_map}) restricts the
      charge-share average to the masked physical lanes instead of the
      [active_lanes]-long prefix.
    Raises [Invalid_argument] if [active_lanes] is not in [1, 128]. *)
val run_iteration :
  ?lane_mask:bool array ->
  t ->
  task:Promise_isa.Task.t ->
  iteration:int ->
  active_lanes:int ->
  adc_gain:float ->
  step

(** {2 Test hooks} *)

module For_tests : sig
  (** [set_write_data t codes] — stage digital data for a Class-1 [write]. *)
  val set_write_data : t -> int array -> unit
end
