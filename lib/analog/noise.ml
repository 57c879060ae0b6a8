type t = Disabled | Enabled of Rng.t

let create ~rng () = Enabled rng
let disabled = Disabled
let rng = function Disabled -> None | Enabled rng -> Some rng

let sigma ~swing ~w = Float.abs w *. Swing.noise_factor swing

let aread t ~swing w =
  match t with
  | Disabled -> w
  | Enabled rng -> Rng.gaussian_scaled rng ~mu:w ~sigma:(sigma ~swing ~w)

let aread_vector t ~swing ws = Array.map (aread t ~swing) ws

let aggregate_sigma ~swing ~n =
  if n <= 0 then invalid_arg "Noise.aggregate_sigma: n must be positive";
  Swing.noise_factor swing /. sqrt (float_of_int n)

module For_tests = struct
  let aread_vector = aread_vector
end
