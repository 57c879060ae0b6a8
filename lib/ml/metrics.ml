let check_lengths a b =
  if Array.length a <> Array.length b then
    invalid_arg "Metrics: array length mismatch";
  if Array.length a = 0 then invalid_arg "Metrics: empty arrays"

let mismatch_probability ~reference ~promise =
  check_lengths reference promise;
  let changed = ref 0 in
  Array.iteri (fun i r -> if r <> promise.(i) then incr changed) reference;
  float_of_int !changed /. float_of_int (Array.length reference)

let geometric_mean xs =
  match xs with
  | [] -> invalid_arg "Metrics.geometric_mean: empty list"
  | _ ->
      let log_sum =
        List.fold_left
          (fun acc x ->
            if x <= 0.0 then
              invalid_arg "Metrics.geometric_mean: non-positive value"
            else acc +. log x)
          0.0 xs
      in
      exp (log_sum /. float_of_int (List.length xs))
