(** The shared 8-bit storage quantization (paper §3.1).

    One signed 8-bit code grid serves every digital-to-storage path of
    the design: bit-cell array writes ({!Promise_arch.Bitcell_array}),
    X-REG staging in the machine, and the host runtime's operand
    quantization ([Ml.Fixed_point]). All of them delegate to this
    module, so a change to the rounding rule cannot desynchronize the
    layers. *)

val quantize8 : float -> int
(** [quantize8 v] — nearest signed 8-bit code for normalized [v]
    ([Float.round (v * 128)]), clamped to [[-128, 127]]. *)

val dequantize8 : int -> float
(** [dequantize8 code] — [code / 128.], the ideal DAC. *)
