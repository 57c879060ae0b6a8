let bits = Promise_core.Quant.bits
let scale = Promise_core.Quant.scale
let quantize = Promise_core.Quant.quantize8
let dequantize = Promise_core.Quant.dequantize8
let quantize_vec = Array.map quantize

let normalize_by max_abs ?(headroom = 0.99) scale_fn data =
  if max_abs <= 0.0 then (scale_fn 1.0 data, 1.0)
  else
    let k = max_abs /. headroom in
    (scale_fn (1.0 /. k) data, k)

let normalize_mat ?headroom m =
  normalize_by (Linalg.mat_max_abs m) ?headroom
    (fun k -> Array.map (Linalg.scale k))
    m

let quantization_step ~bits = 2.0 ** float_of_int (-(bits - 1))

let quantize_to_bits v ~bits =
  let step = quantization_step ~bits in
  let levels = Float.round (v /. step) in
  Float.max (-1.0) (Float.min (1.0 -. step) (levels *. step))
