module Rng = Promise_analog.Rng

type activation = Sigmoid | Relu

type layer = { weights : Linalg.mat; activation : activation }
type t = { layers : layer array }

let apply_activation act v =
  match act with
  | Sigmoid -> Array.map (fun z -> 1.0 /. (1.0 +. exp (-.z))) v
  | Relu -> Array.map (fun z -> Float.max 0.0 z) v

(* Derivative in terms of the activation output a. *)
let activation_deriv act a =
  match act with
  | Sigmoid -> a *. (1.0 -. a)
  | Relu -> if a > 0.0 then 1.0 else 0.0

let create rng ~sizes ~hidden_activation =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let dims = pairs sizes in
  if dims = [] then invalid_arg "Mlp.create: need at least two layer sizes";
  let n = List.length dims in
  let layers =
    List.mapi
      (fun i (fan_in, fan_out) ->
        let sigma = sqrt (2.0 /. float_of_int fan_in) in
        let weights =
          Array.init fan_out (fun _ ->
              Array.init fan_in (fun _ ->
                  Rng.gaussian_scaled rng ~mu:0.0 ~sigma))
        in
        let activation = if i = n - 1 then Sigmoid else hidden_activation in
        { weights; activation })
      dims
  in
  { layers = Array.of_list layers }

let n_layers t = Array.length t.layers

let forward t x =
  let acts = Array.make (n_layers t + 1) x in
  Array.iteri
    (fun i layer ->
      let z = Linalg.mat_vec layer.weights acts.(i) in
      acts.(i + 1) <- apply_activation layer.activation z)
    t.layers;
  acts

let logits t x =
  let n = n_layers t in
  let a = ref x in
  Array.iteri
    (fun i layer ->
      let z = Linalg.mat_vec layer.weights !a in
      a := if i = n - 1 then z else apply_activation layer.activation z)
    t.layers;
  !a

let predict t x = Linalg.argmax (logits t x)

let softmax z =
  let m = Array.fold_left Float.max neg_infinity z in
  let e = Array.map (fun v -> exp (v -. m)) z in
  let s = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun v -> v /. s) e

(* Backprop one sample; returns per-layer weight gradients and, when
   [want_input_grads], the gradient wrt every activation (input included)
   for the Sakr estimator. The output-layer seed is [seed] applied to the
   logits (cross-entropy: p - onehot; margin: e_i1 - e_i2). *)
let backprop t acts seed =
  let n = n_layers t in
  let weight_grads = Array.make n [||] in
  let act_grads = Array.make (n + 1) [||] in
  let delta = ref seed in
  for i = n - 1 downto 0 do
    let layer = t.layers.(i) in
    let input = acts.(i) in
    (* dW = delta ⊗ input *)
    weight_grads.(i) <-
      Array.map (fun d -> Linalg.scale d input) !delta;
    (* gradient wrt the layer input (an activation of layer i) *)
    let gin =
      Array.init (Array.length input) (fun j ->
          let acc = ref 0.0 in
          Array.iteri
            (fun r d -> acc := !acc +. (d *. layer.weights.(r).(j)))
            !delta;
          !acc)
    in
    act_grads.(i) <- gin;
    if i > 0 then
      delta :=
        Array.mapi
          (fun j g ->
            g *. activation_deriv t.layers.(i - 1).activation input.(j))
          gin
  done;
  (weight_grads, act_grads)

let train t rng ~data ~epochs ~lr =
  let n = n_layers t in
  let order = Array.init (Array.length data) (fun i -> i) in
  for _epoch = 1 to epochs do
    Rng.shuffle rng order;
    Array.iter
      (fun idx ->
        let sample = data.(idx) in
        (* forward keeping logits for the last layer *)
        let acts = Array.make (n + 1) sample.Dataset.features in
        for i = 0 to n - 1 do
          let z = Linalg.mat_vec t.layers.(i).weights acts.(i) in
          acts.(i + 1) <-
            (if i = n - 1 then z
             else apply_activation t.layers.(i).activation z)
        done;
        let p = softmax acts.(n) in
        let seed =
          Array.mapi
            (fun k pk -> pk -. if k = sample.Dataset.label then 1.0 else 0.0)
            p
        in
        let weight_grads, _ = backprop t acts seed in
        Array.iteri
          (fun i grads ->
            let w = t.layers.(i).weights in
            Array.iteri
              (fun r grow ->
                let wr = w.(r) in
                Array.iteri
                  (fun c g -> wr.(c) <- wr.(c) -. (lr *. g))
                  grow)
              grads)
          weight_grads)
      order
  done

let accuracy t data =
  let correct =
    Array.fold_left
      (fun acc s ->
        if predict t s.Dataset.features = s.Dataset.label then acc + 1 else acc)
      0 data
  in
  float_of_int correct /. float_of_int (Array.length data)

let sakr_stats t data =
  let n = n_layers t in
  let sum_ea = ref 0.0 and sum_ew = ref 0.0 and count = ref 0 in
  Array.iter
    (fun sample ->
      (* forward with logits at the top *)
      let acts = Array.make (n + 1) sample.Dataset.features in
      for i = 0 to n - 1 do
        let z = Linalg.mat_vec t.layers.(i).weights acts.(i) in
        acts.(i + 1) <-
          (if i = n - 1 then z else apply_activation t.layers.(i).activation z)
      done;
      let z = acts.(n) in
      let i1 = Linalg.argmax z in
      (* runner-up *)
      let i2 =
        let best = ref (if i1 = 0 then 1 else 0) in
        Array.iteri
          (fun k v -> if k <> i1 && v > z.(!best) then best := k)
          z;
        !best
      in
      let margin = z.(i1) -. z.(i2) in
      if margin > 1e-9 then begin
        let seed =
          Array.init (Array.length z) (fun k ->
              if k = i1 then 1.0 else if k = i2 then -1.0 else 0.0)
        in
        let weight_grads, act_grads = backprop t acts seed in
        let sq acc v = acc +. (v *. v) in
        let gw =
          Array.fold_left
            (fun acc grads ->
              Array.fold_left
                (fun acc row -> Array.fold_left sq acc row)
                acc grads)
            0.0 weight_grads
        in
        let ga =
          Array.fold_left
            (fun acc grads -> Array.fold_left sq acc grads)
            0.0 act_grads
        in
        let denom = 12.0 *. margin *. margin in
        sum_ea := !sum_ea +. (ga /. denom);
        sum_ew := !sum_ew +. (gw /. denom);
        incr count
      end)
    data;
  if !count = 0 then (0.0, 0.0)
  else
    let c = float_of_int !count in
    (!sum_ea /. c, !sum_ew /. c)

module For_tests = struct
  let forward = forward
  let logits = logits
end
