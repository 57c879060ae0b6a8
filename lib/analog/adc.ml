let bits = 8
let levels = 1 lsl bits
let units_per_bank = 8
let conversion_delay_cycles = 138
let lsb = 2.0 /. float_of_int levels

(* Mid-tread: zero is exactly representable (code 128), avoiding a
   systematic lsb/2 bias on near-zero aggregates. *)
let quantize v =
  let code = int_of_float (Float.round (v /. lsb)) + (levels / 2) in
  max 0 (min (levels - 1) code)

let dequantize code =
  if code < 0 || code >= levels then invalid_arg "Adc.dequantize: bad code";
  float_of_int (code - (levels / 2)) *. lsb

let convert v = dequantize (quantize v)
