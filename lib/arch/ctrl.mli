(** CTRL: control-signal generation (paper §3.1 — "CTRL is a controller
    to generate enable signals for the aforementioned components based
    on a given instruction").

    Given a decoded Task, CTRL emits the per-cycle enable schedule of
    one pipeline iteration: bit-line precharge, the PWM word-line
    burst, the aSD/aVD enables, the ADC start strobe and the TH strobe.
    This is the behavioural counterpart of the synthesized Verilog CTRL
    the paper validates ("generating the correct control signals at the
    right time"); tests assert orderings and durations against the
    {!Timing} model. *)

type signal =
  | Precharge  (** bit-line precharge ahead of the access *)
  | Wl_pwm of { bits : int }  (** the B_w word lines, PWM-coded *)
  | X_drive  (** X-REG drives the fused Class-1 operand *)
  | Sd_enable of Promise_isa.Opcode.asd
  | Avd_share  (** charge-share across the aSD outputs *)
  | Adc_start
  | Th_strobe of Promise_isa.Opcode.class4
  | Write_enable  (** digital write path *)
  | Read_enable  (** digital read path (sense amps) *)

(** One scheduled assertion: [cycle] is relative to iteration issue;
    the signal stays asserted for [duration] cycles. *)
type step = { cycle : int; duration : int; signal : signal }

(** [iteration_schedule task] — the enable schedule of one iteration,
    in assertion order. Durations sum per stage to the Table-3 stage
    delays. *)
val iteration_schedule : Promise_isa.Task.t -> step list

(** [last_cycle steps] — the cycle after the final deassertion. *)
val last_cycle : step list -> int

(** {2 Test hooks} *)

module For_tests : sig
  val equal_signal : signal -> signal -> bool

  (** [signal_counts task] — how many times each signal asserts over the
      whole task (iterations included): the activity factors the energy
      model's per-op costs summarize. *)
  val signal_counts : Promise_isa.Task.t -> (signal * int) list
end
