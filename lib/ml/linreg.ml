type fit = { slope : float; intercept : float }

let of_statistics ~mean_u ~mean_v ~mean_u2 ~mean_uv =
  let var = mean_u2 -. (mean_u *. mean_u) in
  if Float.abs var < 1e-12 then
    invalid_arg "Linreg.of_statistics: zero variance in u";
  let slope = (mean_uv -. (mean_u *. mean_v)) /. var in
  { slope; intercept = mean_v -. (slope *. mean_u) }

let fit u v =
  if Array.length u <> Array.length v then
    invalid_arg "Linreg.fit: length mismatch";
  let mean_u = Linalg.mean u and mean_v = Linalg.mean v in
  let mean_u2 = Linalg.mean (Array.map (fun x -> x *. x) u) in
  let mean_uv = Linalg.mean (Array.map2 ( *. ) u v) in
  of_statistics ~mean_u ~mean_v ~mean_u2 ~mean_uv
