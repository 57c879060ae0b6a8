module Rng = Promise_analog.Rng

type labeled = { features : float array; label : int }

let clamp v = Float.max (-0.99) (Float.min 0.99 v)

(* A smooth pattern: [bumps] Gaussian bumps with random centers, widths
   and signs. Patterns are the shared vocabulary of all image-like
   generators. *)
let bump_pattern rng ~width ~height ~bumps =
  let fw = float_of_int width and fh = float_of_int height in
  let centers =
    Array.init bumps (fun _ ->
        let cx = Rng.uniform rng ~lo:(0.15 *. fw) ~hi:(0.85 *. fw) in
        let cy = Rng.uniform rng ~lo:(0.15 *. fh) ~hi:(0.85 *. fh) in
        let sigma = Rng.uniform rng ~lo:(0.08 *. fw) ~hi:(0.25 *. fw) in
        let amp = if Rng.float rng < 0.5 then -1.0 else 1.0 in
        (cx, cy, sigma, amp))
  in
  Array.init (width * height) (fun i ->
      let x = float_of_int (i mod width) and y = float_of_int (i / width) in
      let v =
        Array.fold_left
          (fun acc (cx, cy, sigma, amp) ->
            let d2 = ((x -. cx) ** 2.0) +. ((y -. cy) ** 2.0) in
            acc +. (amp *. exp (-.d2 /. (2.0 *. sigma *. sigma))))
          0.0 centers
      in
      clamp v)

let translate ~width ~height ~dx ~dy img =
  Array.init (width * height) (fun i ->
      let x = (i mod width) - dx and y = (i / width) - dy in
      if x < 0 || x >= width || y < 0 || y >= height then 0.0
      else img.((y * width) + x))

let add_noise rng ~sigma img =
  Array.map (fun v -> clamp (v +. Rng.gaussian_scaled rng ~mu:0.0 ~sigma)) img

module Digits = struct
  let n_classes = 10

  let prototype ~cls ~width ~height =
    if cls < 0 || cls >= n_classes then
      invalid_arg "Dataset.Digits.prototype: class out of range";
    (* Class-seeded stream: the prototype is a pure function of the
       class and geometry. *)
    let rng = Rng.create ((cls * 7919) + (width * 104729) + height) in
    bump_pattern rng ~width ~height ~bumps:6

  let generate rng ~width ~height ~n =
    let protos =
      Array.init n_classes (fun cls -> prototype ~cls ~width ~height)
    in
    Array.init n (fun i ->
        let label = i mod n_classes in
        let dx = Rng.int rng 3 - 1 and dy = Rng.int rng 3 - 1 in
        let img = translate ~width ~height ~dx ~dy protos.(label) in
        { features = add_noise rng ~sigma:0.25 img; label })

  module For_tests = struct
    let prototype = prototype
  end
end

module Faces = struct
  (* The shared face structure: two eye bumps and a mouth bar. *)
  let face_base ~width ~height =
    let fw = float_of_int width and fh = float_of_int height in
    let features =
      [
        (0.3 *. fw, 0.35 *. fh, 0.10 *. fw, 0.9);
        (0.7 *. fw, 0.35 *. fh, 0.10 *. fw, 0.9);
        (0.5 *. fw, 0.72 *. fh, 0.16 *. fw, -0.8);
        (0.5 *. fw, 0.15 *. fh, 0.3 *. fw, 0.35);
      ]
    in
    Array.init (width * height) (fun i ->
        let x = float_of_int (i mod width) and y = float_of_int (i / width) in
        let v =
          List.fold_left
            (fun acc (cx, cy, sigma, amp) ->
              let d2 = ((x -. cx) ** 2.0) +. ((y -. cy) ** 2.0) in
              acc +. (amp *. exp (-.d2 /. (2.0 *. sigma *. sigma))))
            0.0 features
        in
        clamp v)

  let identities rng ~width ~height ~n =
    let base = face_base ~width ~height in
    Array.init n (fun _ ->
        let variation = bump_pattern rng ~width ~height ~bumps:6 in
        Array.map2 (fun b v -> clamp (b +. (0.8 *. v))) base variation)

  let query rng ~width ~height templates ~identity =
    if identity < 0 || identity >= Array.length templates then
      invalid_arg "Dataset.Faces.query: identity out of range";
    ignore (width, height);
    add_noise rng ~sigma:0.12 templates.(identity)

  let detection rng ~width ~height ~n =
    let base = face_base ~width ~height in
    Array.init n (fun i ->
        let label = i mod 2 in
        let features =
          if label = 1 then
            let variation = bump_pattern rng ~width ~height ~bumps:4 in
            let img = Array.map2 (fun b v -> clamp (b +. (0.4 *. v))) base variation in
            add_noise rng ~sigma:0.17 img
          else
            let img = bump_pattern rng ~width ~height ~bumps:5 in
            add_noise rng ~sigma:0.17 img
        in
        { features; label })
end

module Gunshot = struct
  let template rng ~len =
    let omega = Rng.uniform rng ~lo:0.5 ~hi:0.9 in
    let tau = float_of_int len /. 4.0 in
    let raw =
      Array.init len (fun i ->
          let t = float_of_int i in
          exp (-.t /. tau) *. sin (omega *. t))
    in
    let peak = Linalg.max_abs raw in
    Array.map (fun v -> clamp (v /. peak *. 0.9)) raw

  let rumble rng ~len =
    let omega = Rng.uniform rng ~lo:0.02 ~hi:0.08 in
    let phase = Rng.uniform rng ~lo:0.0 ~hi:6.28 in
    Array.init len (fun i ->
        0.4 *. sin ((omega *. float_of_int i) +. phase))

  let windows rng ~template ~n ~snr =
    let len = Array.length template in
    Array.init n (fun i ->
        let label = i mod 2 in
        let noise =
          Array.init len (fun _ -> Rng.gaussian_scaled rng ~mu:0.0 ~sigma:0.2)
        in
        let features =
          if label = 1 then
            Array.mapi (fun j v -> clamp ((snr *. template.(j)) +. v)) noise
          else
            let decoy = if Rng.float rng < 0.5 then rumble rng ~len else
                Array.make len 0.0
            in
            Array.mapi (fun j v -> clamp (decoy.(j) +. v)) noise
        in
        { features; label })
end

module Linreg2d = struct
  let generate rng ~n ~slope ~intercept ~noise =
    let u = Array.init n (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
    let v =
      Array.map
        (fun ui ->
          clamp ((slope *. ui) +. intercept
                 +. Rng.gaussian_scaled rng ~mu:0.0 ~sigma:noise))
        u
    in
    (u, v)
end

let train_test_split arr ~test_fraction =
  if test_fraction < 0.0 || test_fraction > 1.0 then
    invalid_arg "Dataset.train_test_split: fraction out of [0, 1]";
  let n = Array.length arr in
  let n_test = int_of_float (Float.round (float_of_int n *. test_fraction)) in
  let n_train = n - n_test in
  (Array.sub arr 0 n_train, Array.sub arr n_train n_test)
