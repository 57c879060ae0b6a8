type stats = { ea : float; ew : float }

let pp_stats ppf s = Format.fprintf ppf "E_A = %.4g, E_W = %.4g" s.ea s.ew

let of_mlp mlp data =
  let ea, ew = Promise_ml.Mlp.sakr_stats mlp data in
  { ea; ew }

let delta ~bits = 2.0 ** float_of_int (-(bits - 1))

let bound s ~ba ~bw =
  let da = delta ~bits:ba and dw = delta ~bits:bw in
  (da *. da *. s.ea) +. (dw *. dw *. s.ew)

let weight_bits = 7

let min_activation_bits s ~pm ~bw =
  if pm <= 0.0 then Error "mismatch probability must be positive"
  else
    let dw = delta ~bits:bw in
    let weight_term = dw *. dw *. s.ew in
    if weight_term >= pm then
      Error
        (Printf.sprintf
           "weight quantization alone (%.4g) exceeds the p_m budget %.4g"
           weight_term pm)
    else
      let rec search ba =
        if ba > 16 then Error "activation precision above 16 bits required"
        else if bound s ~ba ~bw <= pm then Ok ba
        else search (ba + 1)
      in
      search 1

let aggregate_bits = min_activation_bits

module For_tests = struct
  let bound = bound
  let min_activation_bits = min_activation_bits
end
