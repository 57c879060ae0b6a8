(** Analog-dwell timing hazards (the [P-TIM-*] pass).

    Analog state is perishable: a sample held on the aSD stage
    capacitor droops at {!Promise_analog.Leakage.capacitor_rate_per_ns}
    toward zero while it waits for digitization. This pass statically
    bounds, from the {!Promise_arch.Scheduler} stage delays, how many
    cycles an analog accumulation dwells before its ADC read, and
    compares the droop over that dwell against a leakage budget
    derived from the energy model's precision envelope: the held value
    may lose at most 3 ADC LSBs of full scale —
    beyond that the Table-3 energy spent on the sample bought fewer
    effective bits than the datapath's 8.

    Codes:
    - [P-TIM-001] (error) — worst-case accumulation dwell
      ([ACC_NUM × TP] cycles, plus the worst per-conversion ADC stall
      when the bank runs degraded with [adc_units] below its
      eight-unit complement, all scaled by [leakage_mult]) exceeds the
      leakage budget.
    - [P-TIM-002] (error) — a [DES = acc] accumulation chain whose
      members disagree on pipeline cadence ([TP] or iteration count):
      under the PR-7 batched pipeline a new decision issues every
      [iterations × TP] cycles per member, so mismatched members drift
      [(batch−1) × Δ] cycles apart and the drain mixes partial sums
      from different decisions.
    - [P-TIM-003] (warning) — with a degraded ADC complement, the
      conversion request cadence outruns the surviving units
      ([units × group × TP < 138]): dwell grows with every group and
      the pipeline stalls. Only evaluated when [adc_units] is below
      the full complement — at eight units the paper's throughput
      model treats the ADC as fully pipelined. *)

val check_program :
  ?leakage_mult:float ->
  ?adc_units:int ->
  ?batch:int ->
  Promise_isa.Task.t list ->
  Promise_core.Diag.t list
(** All three checks over a Task stream. [leakage_mult] scales the
    droop rate (a {!Promise_arch.Faults} excess-leakage profile);
    [adc_units] models dead ADC units; [batch] (default 2, must be
    ≥ 2) sets the drift horizon quoted by [P-TIM-002]. *)

(** {2 Test hooks} *)

module For_tests : sig
  val leakage_budget_ns : ?leakage_mult:float -> unit -> float
  (** Dwell budget: the time for an exponential droop at
      [capacitor_rate × leakage_mult] to lose 3 ADC LSBs of the held
      value. ≈ 47 ns at the nominal rate. *)
end
