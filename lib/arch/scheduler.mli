(** A discrete-event model of the four-stage analog pipeline (paper
    Fig. 3/4) — the cycle-level counterpart of the closed-form
    {!Timing} model, standing in for the paper's cycle-accurate Verilog
    validation (§5, "architecture-level validation").

    Each Task iteration flows through S1 (Class-1) → S2 (Class-2 aSD +
    aVD) → S3 (one of the eight pipelined ADC units) → S4 (TH). A stage
    accepts a new iteration every TP cycles (the pipeline is
    synchronous: TP accommodates the slowest of S1/S2/S4); the ADC's
    138-cycle latency is hidden by its eight units as long as
    8 × TP ≥ 138 — when a unit is still busy, the pipeline stalls,
    which this model makes visible (unlike the closed form). *)

type event = {
  iteration : int;
  stage : string;  (** "S1" | "S2" | "ADC" | "TH" *)
  start : int;  (** cycle the stage begins *)
  finish : int;  (** cycle its result is ready *)
}

type schedule = {
  events : event list;  (** iteration-major, stage order *)
  completion : int;  (** cycle the last TH result is ready *)
  adc_stalls : int;  (** cycles lost waiting for a free ADC unit *)
}

(** [run ?ideal_adc task] — simulate every iteration of [task] through
    the pipeline. With [ideal_adc] (default true) the ADC is fully
    internally pipelined, as the paper's throughput model assumes; with
    [~ideal_adc:false] each of the eight units is busy for the whole
    138-cycle conversion, exposing stalls whenever 8·TP < 138 (the
    inconsistency the EXPERIMENTS.md fidelity note quantifies).
    [adc_units] (default 8, must be ≥ 1) models a bank with some ADC
    units disabled (see {!Faults.with_dead_adc_units}); it only
    matters with [~ideal_adc:false]. *)
val run : ?ideal_adc:bool -> ?adc_units:int -> Promise_isa.Task.t -> schedule

(** [throughput_interval s] — observed steady-state initiation interval:
    the mean gap between TH completions over the second half of the
    run (stalls are bursty). Equals {!Timing.task_tp} when the ADC
    does not stall. *)
val throughput_interval : schedule -> int option

(** [matches_closed_form task] — the discrete-event completion time
    equals {!Timing.task_cycles} (no-stall case); used by property
    tests. *)
val matches_closed_form : Promise_isa.Task.t -> bool

(** {2 Test hooks} *)

module For_tests : sig
  (** [run_batch ?ideal_adc ?adc_units task ~batch] — simulate [batch]
      back-to-back decisions of [task] through the pipeline with no drain
      between them: a new iteration issues every TP cycles straight
      across decision boundaries, so only the first decision pays the
      fill latency. This is the timing model of
      {!Machine.execute_batch_into}'s batch trace record. Raises
      [Invalid_argument] when [batch < 1]. *)
  val run_batch :
    ?ideal_adc:bool ->
    ?adc_units:int ->
    Promise_isa.Task.t ->
    batch:int ->
    schedule

  (** [batch_matches_closed_form task ~batch] — {!run_batch}'s ideal-ADC
      completion equals [task_cycles + (batch − 1) × iterations × TP];
      the closed form the batched machine path records. *)
  val batch_matches_closed_form : Promise_isa.Task.t -> batch:int -> bool
end
