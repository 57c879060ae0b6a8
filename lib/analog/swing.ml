let min_code = 0
let max_code = 7
let all_codes = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let validate code =
  if code < min_code || code > max_code then
    Error (Printf.sprintf "SWING code %d out of range [0, 7]" code)
  else Ok code

let check code =
  match validate code with
  | Ok c -> c
  | Error msg -> invalid_arg ("Swing: " ^ msg)

let mv_min = 5.0
let mv_max = 30.0

let mv_per_lsb code =
  let code = check code in
  mv_min +. ((mv_max -. mv_min) *. float_of_int code /. float_of_int max_code)

let f_at_min_swing = 0.75
let f_at_max_swing = 0.08

(* Geometric interpolation keeps f strictly decreasing and spans the
   published [0.08, 0.75] range exactly (DESIGN.md, "Modeling decisions"). *)
let noise_factor code =
  let code = check code in
  let ratio = f_at_max_swing /. f_at_min_swing in
  f_at_min_swing *. (ratio ** (float_of_int code /. float_of_int max_code))

let read_energy_scale code = 0.5 +. (0.5 *. mv_per_lsb code /. mv_max)

let of_mv mv =
  let rec search code =
    if code > max_code then max_code
    else if mv_per_lsb code >= mv then code
    else search (code + 1)
  in
  search min_code

module For_tests = struct
  let of_mv = of_mv
  let validate = validate
end
