(** Built-in self-test (BIST): fault detection and localization.

    [run] drives each bank of a machine through a battery of diagnostic
    Tasks with known weights — per-lane ramp reads, zero-weight ADC
    canaries, multi-iteration stall probes, X-REG echo reads — and
    classifies the deviations into a localized {!report}: which bank,
    which lane or ADC, and what kind of fault. The probes only use the
    architectural interface ({!Machine.execute} and data staging); they
    never peek at the injected {!Faults} descriptors, so the test suite
    can validate the report against the injection ground truth.

    The test is {e destructive}: it overwrites the first few word rows
    and X-REG entry 0 of every bank. Run it before loading a workload
    (or reload afterwards). *)

type kind =
  | Stuck_lane of { lane : int; code : int }
      (** the lane reads [code] regardless of the stored weight *)
  | Dead_lane of { lane : int }
      (** the lane reads 0 (stuck-at-zero is reported as dead) *)
  | Dead_bank  (** both analog and digital read paths return zeros *)
  | Adc_offset of { offset : float }
      (** estimated conversion offset, normalized units *)
  | Dead_adc of { stall_cycles : int }
      (** the bank stalls waiting for ADC units; [max_int] when no
          conversion completes at all (every unit dead) *)
  | Xreg_transient of { events : int; trials : int }
      (** X-REG echo reads showed [events] outliers in [trials]
          iterations — transient bit upsets *)
  | Swing_degraded of { measured_sigma : float; expected_sigma : float }
      (** read-noise sigma well above the programmed-swing expectation
          (bit-line swing drift / aging) *)
  | Excess_leakage of { ratio : float }
      (** idle-slot droop probe: measured/nominal signal ratio *)

type finding = { bank : int; kind : kind }

type report = { findings : finding list; banks_tested : int }

val kind_name : kind -> string
(** Short tag: ["stuck-lane"], ["dead-adc"], ... *)

val findings_for : report -> bank:int -> kind list

(** [run ?trials m] — test every bank; [trials] (default 32) sets the
    repetition count of the statistical probes (transients, noise
    sigma). Noise-dependent probes are skipped when the machine is
    noiseless, and the leakage probe when the profile disables leakage.
    Errors from the machine layer (other than the all-ADC-dead case,
    which becomes a finding) propagate. *)
val run : ?trials:int -> Machine.t -> (report, Promise_core.Error.t) result
