module Swing = Promise_analog.Swing
module At = Promise_ir.Abstract_task

let confidence = 2.6

let meets_eq3 ~swing ~bits ~n =
  if n < 1 then invalid_arg "Swing_opt.meets_eq3: n must be >= 1";
  confidence *. Swing.noise_factor swing /. sqrt (float_of_int n)
  < 2.0 ** float_of_int (-(bits + 1))

let min_swing_for ~bits ~n =
  List.find_opt (fun swing -> meets_eq3 ~swing ~bits ~n) Swing.all_codes

let ( let* ) = Result.bind

let optimize_graph ?(guard_bits = 1) g ~stats ~pm =
  let* analytic_bits =
    Precision.aggregate_bits stats ~pm ~bw:Precision.weight_bits
  in
  let bits = analytic_bits + guard_bits in
  let annotated =
    Promise_ir.Graph.map_tasks g (fun _id task ->
        let swing =
          Option.value
            (min_swing_for ~bits ~n:task.At.vector_len)
            ~default:Swing.max_code
        in
        At.with_swing task swing)
  in
  Ok (annotated, bits)

type sweep_point = { swing : int; accuracy : float; energy_pj : float }

type sweep_result = {
  chosen : int;
  reference_accuracy : float;
  points : sweep_point list;
}

let optimize_single ~simulate ~energy_at ~reference_accuracy ~pm =
  let points =
    List.map
      (fun swing ->
        { swing; accuracy = simulate swing; energy_pj = energy_at swing })
      Swing.all_codes
  in
  let chosen =
    match
      List.find_opt
        (fun p -> reference_accuracy -. p.accuracy <= pm)
        points
    with
    | Some p -> p.swing
    | None -> Swing.max_code
  in
  { chosen; reference_accuracy; points }

let search_space_size ~tasks =
  if tasks < 0 then invalid_arg "Swing_opt.search_space_size: negative";
  let rec pow acc n = if n = 0 then acc else pow (acc * 8) (n - 1) in
  pow 1 tasks

module For_tests = struct
  let meets_eq3 = meets_eq3
end
