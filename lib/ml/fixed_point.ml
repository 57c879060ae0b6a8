let quantize = Promise_core.Quant.quantize8
let quantization_step ~bits = 2.0 ** float_of_int (-(bits - 1))

let quantize_to_bits v ~bits =
  let step = quantization_step ~bits in
  let levels = Float.round (v /. step) in
  Float.max (-1.0) (Float.min (1.0 -. step) (levels *. step))
