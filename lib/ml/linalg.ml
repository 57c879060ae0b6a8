type vec = float array
type mat = float array array

let mat_create ~rows ~cols = Array.make_matrix rows cols 0.0

let check_lengths a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg: vector length mismatch"

let dot a b =
  check_lengths a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let l1_distance a b =
  check_lengths a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Float.abs (a.(i) -. b.(i))
  done;
  !acc

let l2_distance a b =
  check_lengths a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let hamming a b =
  check_lengths a b;
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    if (a.(i) >= 0.0) <> (b.(i) >= 0.0) then incr acc
  done;
  float_of_int !acc

let add a b =
  check_lengths a b;
  Array.mapi (fun i v -> v +. b.(i)) a

let sub a b =
  check_lengths a b;
  Array.mapi (fun i v -> v -. b.(i)) a

let scale k a = Array.map (fun v -> k *. v) a
let norm2 a = sqrt (dot a a)

let mean a =
  if Array.length a = 0 then invalid_arg "Linalg.mean: empty vector";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  let m = mean a in
  Array.fold_left (fun acc v -> acc +. ((v -. m) ** 2.0)) 0.0 a
  /. float_of_int (Array.length a)

let arg_extremum better a =
  if Array.length a = 0 then invalid_arg "Linalg: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if better a.(i) a.(!best) then best := i
  done;
  !best

let argmin a = arg_extremum ( < ) a
let argmax a = arg_extremum ( > ) a

let mat_vec m x = Array.map (fun row -> dot row x) m

let mat_rows m = Array.length m
let mat_cols m = if Array.length m = 0 then 0 else Array.length m.(0)

let mat_transpose m =
  let rows = mat_rows m and cols = mat_cols m in
  Array.init cols (fun c -> Array.init rows (fun r -> m.(r).(c)))

let map = Array.map

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

let mat_max_abs m = Array.fold_left (fun acc row -> Float.max acc (max_abs row)) 0.0 m

let outer_accumulate acc x y k =
  if mat_rows acc <> Array.length x || mat_cols acc <> Array.length y then
    invalid_arg "Linalg.outer_accumulate: shape mismatch";
  Array.iteri
    (fun r xr ->
      let row = acc.(r) in
      Array.iteri (fun c yc -> row.(c) <- row.(c) +. (k *. xr *. yc)) y)
    x
