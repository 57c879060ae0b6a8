(* The one 8-bit fixed-point quantizer of the design (paper §3.1): every
   digital-to-storage path — bit-cell writes, X-REG staging, the host
   runtime's operand quantization — rounds a normalized real to the same
   signed code grid. Bitcell_array, Machine and Ml.Fixed_point all
   delegate here so the three layers can never drift apart. *)

let scale = 128.0

let quantize8 v =
  let code = int_of_float (Float.round (v *. scale)) in
  max (-128) (min 127 code)

let dequantize8 code = float_of_int code /. scale
