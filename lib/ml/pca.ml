module Rng = Promise_analog.Rng

type t = { components : Linalg.mat; mean : Linalg.vec }

let fit rng ~data ~n_components ~iterations =
  let n = Array.length data in
  if n = 0 then invalid_arg "Pca.fit: empty data";
  let dim = Array.length data.(0) in
  if n_components < 1 || n_components > dim then
    invalid_arg "Pca.fit: bad n_components";
  let mean =
    let m = Array.make dim 0.0 in
    Array.iter (fun x -> Array.iteri (fun i v -> m.(i) <- m.(i) +. v) x) data;
    Array.map (fun v -> v /. float_of_int n) m
  in
  let centered = Array.map (fun x -> Linalg.sub x mean) data in
  (* Covariance-vector product without materializing the covariance. *)
  let cov_mul v =
    let acc = Array.make dim 0.0 in
    Array.iter
      (fun x ->
        let c = Linalg.dot x v in
        Array.iteri (fun i xi -> acc.(i) <- acc.(i) +. (c *. xi)) x)
      centered;
    Array.map (fun a -> a /. float_of_int n) acc
  in
  let components = Array.make n_components [||] in
  for k = 0 to n_components - 1 do
    let v = ref (Array.init dim (fun _ -> Rng.gaussian rng)) in
    for _ = 1 to iterations do
      let w = cov_mul !v in
      (* deflate against previously found components *)
      for j = 0 to k - 1 do
        let c = Linalg.dot w components.(j) in
        Array.iteri
          (fun i wi -> w.(i) <- wi -. (c *. components.(j).(i)))
          (Array.copy w)
      done;
      let nrm = Linalg.norm2 w in
      if nrm > 1e-12 then v := Linalg.scale (1.0 /. nrm) w
    done;
    components.(k) <- !v
  done;
  { components; mean }

let project t x = Linalg.mat_vec t.components (Linalg.sub x t.mean)
