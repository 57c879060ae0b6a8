(** The 8-bit ADC bank (paper §3.1).

    Each PROMISE bank digitizes its aggregated analog value with eight
    8-bit ADCs operating in parallel (≈57 M conversions/s sustained),
    preventing analog noise from accumulating across Task iterations and
    enabling reliable cross-bank transfers. *)

val levels : int
(** 256. *)

val units_per_bank : int
(** 8 parallel ADCs per bank. *)

val conversion_delay_cycles : int
(** 138 cycles per conversion (Table 3); amortized over the 8 units. *)

(** [quantize v] — digital code (0..255) for analog [v] clamped to
    [[-1, 1)], mid-tread uniform quantizer (zero is exactly
    representable at code 128, avoiding a systematic bias on near-zero
    aggregates). *)
val quantize : float -> int

(** [dequantize code] — analog value of [code]: [(code - 128) · lsb]. *)
val dequantize : int -> float

(** [convert v] — quantize-then-dequantize round trip: the value the
    digital domain sees for analog input [v]. *)
val convert : float -> float

(** [lsb] — quantization step (2 / 256). *)
val lsb : float
