type t = { vectors : int array array; staged : int array }

let create () =
  {
    vectors = Array.make_matrix Params.xreg_depth Params.lanes 0;
    staged = Array.make Params.xreg_depth 0;
  }

let check_index index =
  if index < 0 || index >= Params.xreg_depth then
    invalid_arg
      (Printf.sprintf "Xreg: index %d out of range [0, %d)" index
         Params.xreg_depth)

let check_code code =
  if code < -128 || code > 127 then
    invalid_arg (Printf.sprintf "Xreg: code %d not 8-bit" code)

let load t ~index codes =
  check_index index;
  if Array.length codes > Params.lanes then
    invalid_arg "Xreg.load: more than 128 lanes";
  Array.iter check_code codes;
  let v = t.vectors.(index) in
  Array.fill v 0 Params.lanes 0;
  Array.blit codes 0 v 0 (Array.length codes);
  t.staged.(index) <- 0

let get t ~index =
  check_index index;
  Array.copy t.vectors.(index)

let row_unsafe t ~index =
  check_index index;
  t.vectors.(index)

let get_normalized t ~index =
  check_index index;
  Array.map (fun c -> float_of_int c /. 128.0) t.vectors.(index)

let stage_element t ~index code =
  check_index index;
  check_code code;
  let lane = t.staged.(index) mod Params.lanes in
  t.vectors.(index).(lane) <- code;
  t.staged.(index) <- t.staged.(index) + 1

let staged_count t ~index =
  check_index index;
  t.staged.(index)

let reset_staging t ~index =
  check_index index;
  t.staged.(index) <- 0

module For_tests = struct
  let staged_count = staged_count
  let reset_staging = reset_staging
end
