type vec = float array
type mat = float array array

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

let sub a b =
  check_lengths a b;
  Array.mapi (fun i v -> v -. b.(i)) a

let scale k a = Array.map (fun v -> k *. v) a
let norm2 a = sqrt (dot a a)

let mean a =
  if Array.length a = 0 then invalid_arg "Linalg.mean: empty vector";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

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

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

let mat_max_abs m = Array.fold_left (fun acc row -> Float.max acc (max_abs row)) 0.0 m
