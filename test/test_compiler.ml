(* Compiler tests: backend lowering, the Sakr precision analysis, the
   Eq. (3) swing optimizer, and runtime correctness against the float
   reference implementations on an ideal machine. *)

open Promise.Compiler
open Promise.Ir
open Promise.Isa
module Arch = Promise.Arch
module Ml = Promise.Ml

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let close eps = Alcotest.float eps

let ok_or_fail = function
  | Ok v -> v
  | Error e -> fail (Promise.Error.to_string e)

(* for the layers whose errors are still plain strings *)
let ok_or_fail_s = function Ok v -> v | Error msg -> fail msg

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let at ?(vec_op = Abstract_task.Vo_mul_signed) ?(red_op = Abstract_task.Ro_sum)
    ?(digital_op = Abstract_task.Do_none) ?(vector_len = 128)
    ?(loop_iterations = 16) ?(swing = 7) () =
  Abstract_task.make ~w:"W" ~x:"x" ~output:"out" ~vec_op ~red_op ~digital_op
    ~vector_len ~loop_iterations ~swing ()

let test_classes_of_mul () =
  let c1, c2, c3, c4 = ok_or_fail (Lower.For_tests.classes_of (at ())) in
  check bool "aREAD" true (Opcode.equal_class1 c1 Opcode.C1_aread);
  check bool "sign_mult + avd" true
    (Opcode.equal_class2 c2 { Opcode.asd = Opcode.Asd_sign_mult; avd = true });
  check bool "ADC" true (Opcode.equal_class3 c3 Opcode.C3_adc);
  check bool "accumulate" true (Opcode.equal_class4 c4 Opcode.C4_accumulate)

let test_classes_of_l1 () =
  let c1, c2, _, c4 =
    ok_or_fail
      (Lower.For_tests.classes_of
         (at ~vec_op:Abstract_task.Vo_sub ~red_op:Abstract_task.Ro_sum_abs
            ~digital_op:Abstract_task.Do_min ()))
  in
  check bool "aSUBT" true (Opcode.equal_class1 c1 Opcode.C1_asubt);
  check bool "absolute" true
    (Opcode.equal_class2 c2 { Opcode.asd = Opcode.Asd_absolute; avd = true });
  check bool "min" true (Opcode.equal_class4 c4 Opcode.C4_min)

let test_classes_of_vo_none_square () =
  let c1, c2, _, _ =
    ok_or_fail
      (Lower.For_tests.classes_of
         (at ~vec_op:Abstract_task.Vo_none ~red_op:Abstract_task.Ro_sum_square
            ~digital_op:Abstract_task.Do_mean ()))
  in
  check bool "aREAD" true (Opcode.equal_class1 c1 Opcode.C1_aread);
  check bool "square" true
    (Opcode.equal_class2 c2 { Opcode.asd = Opcode.Asd_square; avd = true })

let test_classes_of_invalid_combo () =
  match
    Lower.For_tests.classes_of
      (at ~vec_op:Abstract_task.Vo_mul_signed ~red_op:Abstract_task.Ro_sum_abs ())
  with
  | Error _ -> ()
  | Ok _ -> fail "multiply + absolute must be rejected"

let test_threshold_code () =
  check int "zero is midpoint" 8 (Lower.For_tests.threshold_code 0.0);
  check int "minus one" 0 (Lower.For_tests.threshold_code (-1.0));
  check int "plus one" 15 (Lower.For_tests.threshold_code 1.0);
  check int "clamps" 15 (Lower.For_tests.threshold_code 3.0)

let test_lower_chunk_fields () =
  let a = at ~vector_len:512 ~loop_iterations:100 ~swing:3 () in
  let plan = Arch.Layout.plan_exn ~vector_len:512 ~rows:100 () in
  let task = ok_or_fail (Lower.lower_chunk a ~plan ~chunk:0 ~w_base:0 ~xreg_base:0) in
  check int "multi_bank" 2 task.Task.multi_bank;
  check int "rpt covers rows x segments" (100 - 1) task.Task.rpt_num;
  check int "swing propagated" 3 task.Task.op_param.Op_param.swing;
  check int "x_prd" 0 task.Task.op_param.Op_param.x_prd

let test_lower_segments () =
  let a = at ~vector_len:4096 ~loop_iterations:2 () in
  let plan = Arch.Layout.plan_exn ~vector_len:4096 ~rows:2 () in
  let task = ok_or_fail (Lower.lower_chunk a ~plan ~chunk:0 ~w_base:0 ~xreg_base:0) in
  check int "x_prd = 3" 3 task.Task.op_param.Op_param.x_prd;
  check int "acc groups segments" 3 task.Task.op_param.Op_param.acc_num;
  check int "8 iterations" 7 task.Task.rpt_num

let test_lower_chunked_program () =
  let a = at ~vector_len:784 ~loop_iterations:512 () in
  let plan = Arch.Layout.plan_exn ~vector_len:784 ~rows:512 () in
  let tasks = ok_or_fail (Lower.For_tests.lower a ~plan) in
  check int "four chunks" 4 (List.length tasks);
  List.iter
    (fun t -> check int "each chunk 128 rows" 127 t.Task.rpt_num)
    tasks

let test_destination_routing () =
  let sigmoid_task =
    ok_or_fail
      (Lower.lower_chunk
         (at ~digital_op:Abstract_task.Do_sigmoid ())
         ~plan:(Arch.Layout.plan_exn ~vector_len:128 ~rows:16 ())
         ~chunk:0 ~w_base:0 ~xreg_base:0)
  in
  check bool "activations go to X-REG" true
    (Opcode.equal_destination sigmoid_task.Task.op_param.Op_param.des
       Opcode.Des_xreg);
  let min_task =
    ok_or_fail
      (Lower.lower_chunk
         (at ~vec_op:Abstract_task.Vo_sub ~red_op:Abstract_task.Ro_sum_abs
            ~digital_op:Abstract_task.Do_min ())
         ~plan:(Arch.Layout.plan_exn ~vector_len:128 ~rows:16 ())
         ~chunk:0 ~w_base:0 ~xreg_base:0)
  in
  check bool "decisions go to the output buffer" true
    (Opcode.equal_destination min_task.Task.op_param.Op_param.des
       Opcode.Des_output_buffer)

let test_program_of_graph () =
  let g =
    ok_or_fail_s
      (Graph.of_tasks
         [
           at ~loop_iterations:8 ();
           Abstract_task.make ~w:"W2" ~x:"out" ~output:"y"
             ~vec_op:Abstract_task.Vo_mul_signed ~red_op:Abstract_task.Ro_sum
             ~digital_op:Abstract_task.Do_sigmoid ~vector_len:8
             ~loop_iterations:4 ();
         ])
  in
  let p = ok_or_fail (Lower.program_of_graph g) in
  check int "two tasks" 2 (Program.length p)

(* ------------------------------------------------------------------ *)
(* Precision (Sakr bound)                                              *)
(* ------------------------------------------------------------------ *)

let test_bound_formula () =
  let s = { Precision.ea = 4.0; ew = 16.0 } in
  (* ba=2: da = 2^-1, term = 0.25*4 = 1; bw=3: dw = 2^-2, 16/16 = 1 *)
  check (close 1e-9) "bound" 2.0 (Precision.For_tests.bound s ~ba:2 ~bw:3)

let test_bound_decreases_with_bits () =
  let s = { Precision.ea = 10.0; ew = 10.0 } in
  let prev = ref infinity in
  for b = 1 to 12 do
    let v = Precision.For_tests.bound s ~ba:b ~bw:b in
    check bool "decreasing" true (v < !prev);
    prev := v
  done

let test_min_activation_bits () =
  let s = { Precision.ea = 1.0; ew = 0.001 } in
  let ba = ok_or_fail_s (Precision.For_tests.min_activation_bits s ~pm:0.01 ~bw:7) in
  (* need da^2 <= ~0.01 -> da <= 0.1 -> ba >= 1 + log2(10) ~ 4.4 *)
  check int "ba" 5 ba;
  check bool "bound satisfied" true (Precision.For_tests.bound s ~ba ~bw:7 <= 0.01);
  check bool "minimal" true (Precision.For_tests.bound s ~ba:(ba - 1) ~bw:7 > 0.01)

let test_min_activation_bits_infeasible () =
  (* weight term alone blows the budget *)
  let s = { Precision.ea = 1.0; ew = 1e6 } in
  match Precision.For_tests.min_activation_bits s ~pm:0.01 ~bw:7 with
  | Error _ -> ()
  | Ok _ -> fail "infeasible budget must be rejected"

let test_stats_of_trained_mlp () =
  let rng = Promise.Analog.Rng.create 31 in
  let data = Ml.Dataset.Digits.generate rng ~width:8 ~height:8 ~n:200 in
  let mlp = Ml.Mlp.create rng ~sizes:[ 64; 16; 10 ] ~hidden_activation:Ml.Mlp.Sigmoid in
  Ml.Mlp.train mlp rng ~data ~epochs:3 ~lr:0.3;
  let s = Precision.of_mlp mlp (Array.sub data 0 50) in
  check bool "EA positive" true (s.Precision.ea > 0.0);
  check bool "EW positive" true (s.Precision.ew > 0.0)

(* ------------------------------------------------------------------ *)
(* Swing optimization (Eq. 3)                                          *)
(* ------------------------------------------------------------------ *)

let test_eq3_predicate () =
  (* 2.6 f(s)/sqrt(N) < 2^-(B+1) *)
  let lhs s n = 2.6 *. Promise.Analog.Swing.noise_factor s /. sqrt (float_of_int n) in
  check bool "consistency" true
    (Swing_opt.For_tests.meets_eq3 ~swing:7 ~bits:4 ~n:784
    = (lhs 7 784 < 2.0 ** (-5.0)))

let test_min_swing_monotone_in_n () =
  (* wider layers tolerate lower swings (paper §6.1) *)
  let swing_for n =
    Option.value (Swing_opt.min_swing_for ~bits:4 ~n) ~default:7
  in
  check bool "784 <= 512" true (swing_for 784 <= swing_for 512);
  check bool "512 <= 128" true (swing_for 512 <= swing_for 128)

let test_min_swing_monotone_in_bits () =
  let swing_for bits =
    Option.value (Swing_opt.min_swing_for ~bits ~n:256) ~default:7
  in
  check bool "more bits, more swing" true (swing_for 3 <= swing_for 5)

let test_min_swing_none_when_impossible () =
  check bool "16 bits unreachable" true
    (Swing_opt.min_swing_for ~bits:16 ~n:16 = None)

let test_optimize_graph_assigns_per_layer_swings () =
  let layer ~w ~x ~out ~n ~rows =
    Abstract_task.make ~w ~x ~output:out ~vec_op:Abstract_task.Vo_mul_signed
      ~red_op:Abstract_task.Ro_sum ~digital_op:Abstract_task.Do_sigmoid
      ~vector_len:n ~loop_iterations:rows ()
  in
  let g =
    ok_or_fail_s
      (Graph.of_tasks
         [
           layer ~w:"W0" ~x:"x" ~out:"h0" ~n:784 ~rows:512;
           layer ~w:"W1" ~x:"h0" ~out:"h1" ~n:512 ~rows:256;
           layer ~w:"W2" ~x:"h1" ~out:"h2" ~n:256 ~rows:128;
           layer ~w:"W3" ~x:"h2" ~out:"y" ~n:128 ~rows:10;
         ])
  in
  let stats = { Precision.ea = 2.0; ew = 0.01 } in
  let g', bits = ok_or_fail_s (Swing_opt.optimize_graph g ~stats ~pm:0.01) in
  check bool "bits reasonable" true (bits >= 3 && bits <= 9);
  let swings =
    List.map (fun id -> (Graph.task g' id).Abstract_task.swing)
      (Graph.topological_order g')
  in
  (* wider (earlier) layers get equal-or-lower swing codes *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check bool "monotone swings across layers" true (monotone swings)

let test_optimize_single_picks_cheapest_passing () =
  (* fabricated oracle: accuracy climbs with swing *)
  let accs = [| 0.90; 0.93; 0.97; 0.992; 0.994; 0.995; 0.996; 0.997 |] in
  let r =
    Swing_opt.optimize_single
      ~simulate:(fun s -> accs.(s))
      ~energy_at:(fun s -> float_of_int (s + 1))
      ~reference_accuracy:1.0 ~pm:0.01
  in
  check int "first within pm" 3 r.Swing_opt.chosen;
  check int "eight points" 8 (List.length r.Swing_opt.points)

let test_optimize_single_falls_back_to_max () =
  let r =
    Swing_opt.optimize_single
      ~simulate:(fun _ -> 0.5)
      ~energy_at:(fun _ -> 1.0)
      ~reference_accuracy:1.0 ~pm:0.01
  in
  check int "fallback 7" 7 r.Swing_opt.chosen

let test_search_space () =
  check int "8^1" 8 (Swing_opt.search_space_size ~tasks:1);
  check int "8^4 = 4096 (DNN-3, §6.1)" 4096 (Swing_opt.search_space_size ~tasks:4)

(* ------------------------------------------------------------------ *)
(* Runtime correctness on an ideal machine                              *)
(* ------------------------------------------------------------------ *)

let ideal_machine banks =
  Arch.Machine.create (Arch.Machine.ideal_config ~banks)

let run_kernel ?(banks = 8) kernel bindings =
  let g = ok_or_fail (Pipeline.compile kernel) in
  ok_or_fail (Runtime.run ~machine:(ideal_machine banks) g bindings)

let final r = ok_or_fail (Runtime.final_output r)

let test_runtime_dot_matches_reference () =
  let rows = 12 and cols = 40 in
  let rng = Promise.Analog.Rng.create 5 in
  let w =
    Array.init rows (fun _ ->
        Array.init cols (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.8) ~hi:0.8))
  in
  let x = Array.init cols (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.8) ~hi:0.8) in
  let k =
    Dsl.kernel ~name:"dot"
      ~decls:
        [
          Dsl.matrix "W" ~rows ~cols;
          Dsl.vector "x" ~len:cols;
          Dsl.out_vector "out" ~len:rows;
        ]
      [ Dsl.for_store ~iterations:rows ~out:"out" (Dsl.dot "W" "x") ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W" w;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel k b)).Runtime.values in
  let reference = Ml.Linalg.mat_vec w x in
  check int "all rows" rows (Array.length out);
  Array.iteri
    (fun i v -> check (close 0.05) "dot row" reference.(i) v)
    out

let test_runtime_l1_argmin_matches_reference () =
  let rng = Promise.Analog.Rng.create 6 in
  let candidates =
    Array.init 10 (fun _ ->
        Array.init 64 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.copy candidates.(4) in
  let k =
    Dsl.kernel ~name:"tm"
      ~decls:
        [
          Dsl.matrix "W" ~rows:10 ~cols:64;
          Dsl.vector "x" ~len:64;
          Dsl.out_vector "out" ~len:10;
        ]
      [
        Dsl.for_store ~iterations:10 ~out:"out" (Dsl.l1_distance "W" "x");
        Dsl.argmin "out";
      ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W" candidates;
  Runtime.bind_vector b "x" x;
  match (final (run_kernel k b)).Runtime.decision with
  | Some (i, _) -> check int "nearest candidate" 4 i
  | None -> fail "decision expected"

let test_runtime_l2_values () =
  let rng = Promise.Analog.Rng.create 7 in
  let w =
    Array.init 6 (fun _ ->
        Array.init 32 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init 32 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let k =
    Dsl.kernel ~name:"l2"
      ~decls:
        [
          Dsl.matrix "W" ~rows:6 ~cols:32;
          Dsl.vector "x" ~len:32;
          Dsl.out_vector "out" ~len:6;
        ]
      [ Dsl.for_store ~iterations:6 ~out:"out" (Dsl.l2_distance "W" "x") ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W" w;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel k b)).Runtime.values in
  Array.iteri
    (fun i v ->
      let reference = Ml.Linalg.l2_distance w.(i) x in
      check (close (0.05 +. (reference *. 0.1))) "l2 row" reference v)
    out

let test_runtime_threshold_decision () =
  let k =
    Dsl.kernel ~name:"thr"
      ~decls:
        [
          Dsl.matrix "W" ~rows:1 ~cols:4;
          Dsl.vector "x" ~len:4;
          Dsl.out_vector "out" ~len:1;
        ]
      [
        Dsl.for_store ~iterations:1 ~out:"out"
          (Dsl.sthreshold 0.1 (Dsl.dot "W" "x"));
      ]
  in
  let run w_row x =
    let b = Runtime.bindings () in
    Runtime.bind_matrix b "W" [| w_row |];
    Runtime.bind_vector b "x" x;
    (final (run_kernel k b)).Runtime.values.(0)
  in
  check (close 1e-9) "above threshold" 1.0
    (run [| 0.5; 0.5; 0.5; 0.5 |] [| 0.5; 0.5; 0.5; 0.5 |]);
  check (close 1e-9) "below threshold" 0.0
    (run [| 0.5; -0.5; 0.5; -0.5 |] [| 0.5; 0.5; 0.5; 0.5 |])

let test_runtime_multibank_long_vector () =
  (* 512-element vectors span 4 banks (the §3.4 shape) *)
  let rng = Promise.Analog.Rng.create 8 in
  let w =
    Array.init 4 (fun _ ->
        Array.init 512 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init 512 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let k =
    Dsl.kernel ~name:"wide"
      ~decls:
        [
          Dsl.matrix "W" ~rows:4 ~cols:512;
          Dsl.vector "x" ~len:512;
          Dsl.out_vector "out" ~len:4;
        ]
      [ Dsl.for_store ~iterations:4 ~out:"out" (Dsl.dot "W" "x") ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W" w;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel k b)).Runtime.values in
  Array.iteri
    (fun i v -> check (close 0.3) "wide dot" (Ml.Linalg.dot w.(i) x) v)
    out

let test_runtime_mean_statistics () =
  let n = 1024 and cols = 256 in
  let rng = Promise.Analog.Rng.create 9 in
  let u = Array.init n (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let v = Array.map (fun ui -> (0.5 *. ui) +. 0.1) u in
  let rows = n / cols in
  let k =
    Dsl.kernel ~name:"stats"
      ~decls:
        [
          Dsl.matrix "U" ~rows ~cols;
          Dsl.matrix "V" ~rows ~cols;
          Dsl.vector "Vvec" ~len:n;
        ]
      [
        Dsl.mean "U"; Dsl.mean "V"; Dsl.mean_square "U";
        Dsl.mean_product "U" "Vvec";
      ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_flat b "U" u ~cols;
  Runtime.bind_flat b "V" v ~cols;
  Runtime.bind_vector b "Vvec" v;
  let r = run_kernel k b in
  let values = List.map (fun (_, o) -> o.Runtime.values.(0)) r.Runtime.outputs in
  match values with
  | [ mu; mv; mu2; muv ] ->
      check (close 0.02) "mean u" (Ml.Linalg.mean u) mu;
      check (close 0.02) "mean v" (Ml.Linalg.mean v) mv;
      check (close 0.02) "mean u^2"
        (Ml.Linalg.mean (Array.map (fun a -> a *. a) u)) mu2;
      check (close 0.02) "mean uv"
        (Ml.Linalg.mean (Array.map2 ( *. ) u v)) muv
  | _ -> fail "four statistics expected"

let test_runtime_dnn_chain () =
  let rng = Promise.Analog.Rng.create 10 in
  let mlp = Ml.Mlp.create rng ~sizes:[ 32; 12; 4 ] ~hidden_activation:Ml.Mlp.Sigmoid in
  let x = Array.init 32 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let k =
    Dsl.kernel ~name:"mlp"
      ~decls:
        [
          Dsl.matrix "W0" ~rows:12 ~cols:32;
          Dsl.matrix "W1" ~rows:4 ~cols:12;
          Dsl.vector "x" ~len:32;
          Dsl.out_vector "h" ~len:12;
          Dsl.out_vector "y" ~len:4;
        ]
      [
        Dsl.for_store ~iterations:12 ~out:"h" (Dsl.sigmoid (Dsl.dot "W0" "x"));
        Dsl.for_store ~iterations:4 ~out:"y" (Dsl.sigmoid (Dsl.dot "W1" "h"));
      ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W0" mlp.Ml.Mlp.layers.(0).Ml.Mlp.weights;
  Runtime.bind_matrix b "W1" mlp.Ml.Mlp.layers.(1).Ml.Mlp.weights;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel k b)).Runtime.values in
  let reference = (Ml.Mlp.For_tests.forward mlp x).(2) in
  check int "4 outputs" 4 (Array.length out);
  Array.iteri
    (fun i v -> check (close 0.08) "mlp output" reference.(i) v)
    out;
  (* decisions agree *)
  check int "argmax agrees" (Ml.Linalg.argmax reference) (Ml.Linalg.argmax out)

let test_runtime_unbound_arrays_error () =
  let k =
    Dsl.kernel ~name:"dot"
      ~decls:
        [
          Dsl.matrix "W" ~rows:2 ~cols:4;
          Dsl.vector "x" ~len:4;
          Dsl.out_vector "out" ~len:2;
        ]
      [ Dsl.for_store ~iterations:2 ~out:"out" (Dsl.dot "W" "x") ]
  in
  let g = ok_or_fail (Pipeline.compile k) in
  match Runtime.run ~machine:(ideal_machine 1) g (Runtime.bindings ()) with
  | Error _ -> ()
  | Ok _ -> fail "unbound arrays must be an error"

(* A W row of the wrong width is a typed error naming the task and the
   row, as a wrong-length X is: the layout never silently zero-pads a
   short row or drops a long row's tail. *)
let test_runtime_w_row_width () =
  let k =
    Dsl.kernel ~name:"dot"
      ~decls:
        [
          Dsl.matrix "W" ~rows:4 ~cols:64;
          Dsl.vector "x" ~len:64;
          Dsl.out_vector "out" ~len:4;
        ]
      [ Dsl.for_store ~iterations:4 ~out:"out" (Dsl.dot "W" "x") ]
  in
  let g = ok_or_fail (Pipeline.compile k) in
  let bindings width =
    let b = Runtime.bindings () in
    Runtime.bind_matrix b "W"
      (Array.init 4 (fun r -> Array.make (if r = 2 then width else 64) 0.25));
    Runtime.bind_vector b "x" (Array.make 64 0.5);
    b
  in
  List.iter
    (fun width ->
      match Runtime.run ~machine:(ideal_machine 1) g (bindings width) with
      | Ok _ -> Alcotest.failf "a W row of width %d was accepted" width
      | Error e ->
          check bool "Invalid_operand" true
            (e.Promise.Error.code = Promise.Error.Invalid_operand);
          check (Alcotest.option Alcotest.string) "row in context" (Some "2")
            (List.assoc_opt "row" e.Promise.Error.context);
          check bool "task in context" true
            (List.mem_assoc "task" e.Promise.Error.context))
    [ 48; 80; 1 ];
  ignore (ok_or_fail (Runtime.run ~machine:(ideal_machine 1) g (bindings 64)))

let test_runtime_adc_gain_estimation () =
  (* small-magnitude data picks a large power-of-two gain *)
  let a = at ~vector_len:4 ~loop_iterations:1 () in
  let plan = Arch.Layout.plan_exn ~vector_len:4 ~rows:1 () in
  let g =
    Runtime.For_tests.estimate_adc_gain a plan
      ~w_codes:[| [| 2; -2; 2; -2 |] |]
      ~x:(Some [| 3; 3; 3; 3 |]) ~streaming:false
  in
  check bool "gain is a large power of two" true (g >= 32.0);
  check (close 1e-9) "power of two" 0.0
    (Float.rem (Float.log (Float.max g 1.0) /. Float.log 2.0) 1.0)

(* The gain preview runs on every query, so it must not allocate: each
   call stays under 100 minor words. The last three cases' codes are
   small enough to pick a gain above 1, so all 128 of their rows are
   scanned. *)
let test_runtime_adc_gain_allocation () =
  let vector_len = 256 and rows = 128 in
  let case ?(vec_op = Abstract_task.Vo_mul_signed)
      ?(red_op = Abstract_task.Ro_sum) name ~full_scan ~w ~x ~streaming =
    let a = at ~vec_op ~red_op ~vector_len ~loop_iterations:rows () in
    let plan =
      Arch.Layout.plan_exn ~vector_len ~rows:(if streaming then 1 else rows) ()
    in
    let w_codes = Array.init rows (fun r -> Array.init vector_len (w r)) in
    let call () =
      Runtime.For_tests.estimate_adc_gain a plan ~w_codes ~x ~streaming
    in
    if full_scan && call () <= 1.0 then
      Alcotest.failf "%s: gain %g stops the scan early" name (call ());
    let calls = 20 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (call ()))
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int calls in
    check bool
      (Printf.sprintf "%s: %.1f minor words per call < 100" name words)
      true (words < 100.0)
  in
  case "wide codes" ~full_scan:false
    ~w:(fun r e -> ((r * e) mod 255) - 127)
    ~x:(Some (Array.init vector_len (fun e -> (e mod 200) - 100)))
    ~streaming:false;
  case "dot product" ~full_scan:true
    ~w:(fun r e -> ((r + e) mod 7) - 3)
    ~x:(Some (Array.init vector_len (fun e -> (e mod 5) - 2)))
    ~streaming:false;
  case "streaming" ~full_scan:true
    ~w:(fun r e -> ((r * e) mod 9) - 4)
    ~x:(Some (Array.init (rows * vector_len) (fun e -> (e mod 11) - 5)))
    ~streaming:true;
  case "L1 distance" ~vec_op:Abstract_task.Vo_sub
    ~red_op:Abstract_task.Ro_sum_abs ~full_scan:true
    ~w:(fun r e -> ((r + (3 * e)) mod 5) - 2)
    ~x:(Some (Array.init vector_len (fun e -> (e mod 3) - 1)))
    ~streaming:false

(* The gain preview's oracle: one generic per-lane formula that matches
   the operators on every lane, over every row. The runtime's preview
   specializes the loop per operator pair and stops at the first row
   that settles the gain at 1; it must pick the same gain. *)
let oracle_partial_mean (at : Abstract_task.t) (plan : Arch.Layout.plan) ~w
    ~x ~x_off ~x_len ~bank ~segment =
  let lanes = plan.Arch.Layout.lanes_per_bank in
  let base = ((bank * plan.Arch.Layout.segments) + segment) * lanes in
  let acc = ref 0.0 in
  for lane = 0 to lanes - 1 do
    let e = base + lane in
    let w = float_of_int (if e < Array.length w then w.(e) else 0) /. 128.0 in
    let x =
      match x with
      | Some xs -> float_of_int (if e < x_len then xs.(x_off + e) else 0) /. 128.0
      | None -> 0.0
    in
    let s1 =
      match at.Abstract_task.vec_op with
      | Abstract_task.Vo_add -> (w +. x) /. 2.0
      | Abstract_task.Vo_sub -> (w -. x) /. 2.0
      | Abstract_task.Vo_mul_signed -> w *. x
      | Abstract_task.Vo_mul_unsigned -> Float.abs w *. Float.abs x
      | Abstract_task.Vo_none -> w
    in
    let v =
      match (at.Abstract_task.vec_op, at.Abstract_task.red_op) with
      | (Abstract_task.Vo_mul_signed | Abstract_task.Vo_mul_unsigned), _ -> s1
      | _, Abstract_task.Ro_sum -> s1
      | _, Abstract_task.Ro_sum_abs -> Float.abs s1
      | _, Abstract_task.Ro_sum_square -> s1 *. s1
      | _, Abstract_task.Ro_sum_compare -> if s1 >= 0.0 then 1.0 else 0.0
    in
    acc := !acc +. v
  done;
  !acc /. float_of_int lanes

let oracle_gain (at : Abstract_task.t) (plan : Arch.Layout.plan) ~w_codes ~x
    ~streaming =
  let vector_len = at.Abstract_task.vector_len in
  let x_len =
    match x with Some xs when not streaming -> Array.length xs | _ -> vector_len
  in
  let max_abs = ref 0.0 in
  for r = 0 to Array.length w_codes - 1 do
    let x_off = if streaming then r * vector_len else 0 in
    for bank = 0 to plan.Arch.Layout.banks - 1 do
      for segment = 0 to plan.Arch.Layout.segments - 1 do
        let m =
          oracle_partial_mean at plan ~w:w_codes.(r) ~x ~x_off ~x_len ~bank
            ~segment
        in
        max_abs := Float.max !max_abs (Float.abs m)
      done
    done
  done;
  let max_abs = !max_abs and target = 0.7 in
  let rec grow g =
    if g >= 64.0 then 64.0
    else if 2.0 *. g *. max_abs <= target then grow (2.0 *. g)
    else g
  in
  if max_abs <= 0.0 then 64.0 else grow 1.0

let vec_ops =
  Abstract_task.[| Vo_none; Vo_add; Vo_sub; Vo_mul_signed; Vo_mul_unsigned |]

let red_ops =
  Abstract_task.[| Ro_sum; Ro_sum_abs; Ro_sum_square; Ro_sum_compare |]

type preview_case = {
  pair : int;  (** [vec_ops.(pair / 4)], [red_ops.(pair mod 4)] *)
  x_shape : int;  (** 0 broadcast, 1 streaming, 2 absent *)
  vector_len : int;
  rows : int;
  magnitude : int;
  spread : int;
      (** codes lie in [-magnitude, magnitude] (0), [0, magnitude] (1) or
          [magnitude / 2, magnitude] (2) *)
  seed : int;
}

let print_preview_case c =
  Printf.sprintf
    "{pair=%d (%s, %s); x=%s; vector_len=%d; rows=%d; magnitude=%d; \
     spread=%d; seed=%d}"
    c.pair
    (Format.asprintf "%a" Abstract_task.pp_vec_op vec_ops.(c.pair / 4))
    (Format.asprintf "%a" Abstract_task.pp_red_op red_ops.(c.pair mod 4))
    (match c.x_shape with 0 -> "broadcast" | 1 -> "streaming" | _ -> "absent")
    c.vector_len c.rows c.magnitude c.spread c.seed

let gen_preview_case st =
  let open QCheck.Gen in
  {
    pair = int_bound 19 st;
    x_shape = int_bound 2 st;
    (* a length off a multiple of the bank count pads the last bank *)
    vector_len =
      frequency [ (3, int_range 1 300); (1, int_range 300 1100) ] st;
    rows = int_range 1 130 st;
    magnitude = frequency [ (1, oneofl [ 1; 2; 3; 8; 32 ]); (1, return 127) ] st;
    spread = int_bound 2 st;
    seed = int_bound 100_000 st;
  }

(* Same gain as the oracle, over all 20 operator pairs, broadcast,
   streaming and absent X, padded banks, 1..130 rows, and code
   magnitudes from ones that settle gain 1 on the first rows (the early
   exit) to ones that need gains 2..64 (the full scan). *)
let qcheck_gain_preview_matches_oracle =
  QCheck.Test.make ~name:"gain preview == the generic per-lane oracle"
    ~count:500
    (QCheck.make ~print:print_preview_case gen_preview_case)
    (fun c ->
      let rng = Promise.Analog.Rng.create c.seed in
      let lo =
        match c.spread with
        | 0 -> -c.magnitude
        | 1 -> 0
        | _ -> c.magnitude / 2
      in
      let code () = lo + Promise.Analog.Rng.int rng (c.magnitude - lo + 1) in
      let streaming = c.x_shape = 1 in
      let a =
        at ~vec_op:vec_ops.(c.pair / 4) ~red_op:red_ops.(c.pair mod 4)
          ~vector_len:c.vector_len ~loop_iterations:c.rows ()
      in
      let plan =
        Arch.Layout.plan_exn ~vector_len:c.vector_len
          ~rows:(if streaming then 1 else c.rows)
          ()
      in
      let w_codes =
        Array.init c.rows (fun _ -> Array.init c.vector_len (fun _ -> code ()))
      in
      let x =
        match c.x_shape with
        | 0 -> Some (Array.init c.vector_len (fun _ -> code ()))
        | 1 -> Some (Array.init (c.rows * c.vector_len) (fun _ -> code ()))
        | _ -> None
      in
      Runtime.For_tests.estimate_adc_gain a plan ~w_codes ~x ~streaming
      = oracle_gain a plan ~w_codes ~x ~streaming)

let test_runtime_compare_kernel () =
  (* the Hamming-style compare path: count of non-negative differences *)
  let k =
    Dsl.kernel ~name:"cmp"
      ~decls:
        [
          Dsl.matrix "W" ~rows:3 ~cols:16;
          Dsl.vector "x" ~len:16;
          Dsl.out_vector "out" ~len:3;
        ]
      [
        Dsl.for_store ~iterations:3 ~out:"out"
          (Dsl.sum (Dsl.vcompare (Dsl.vsub (Dsl.row "W") (Dsl.xvec "x"))));
      ]
  in
  let rng = Promise.Analog.Rng.create 41 in
  let w =
    Array.init 3 (fun _ ->
        Array.init 16 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init 16 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W" w;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel k b)).Runtime.values in
  Array.iteri
    (fun i v ->
      let reference =
        Array.fold_left ( + ) 0
          (Array.mapi (fun j wj -> if wj -. x.(j) >= 0.0 then 1 else 0) w.(i))
      in
      (* compare emits exact 0/1 per lane; sum is exact up to ADC *)
      check (close 0.6) "compare count" (float_of_int reference) v)
    out

let test_eq3_empirical_aggregate_noise () =
  (* End-to-end validation of the Eq. (3) noise model: the standard
     deviation of the digitized aggregate of N worst-case (|w| = 1)
     reads matches f(swing)/sqrt(N) within sampling error. *)
  let swing = 4 and lanes = 128 in
  let machine =
    Arch.Machine.create
      { Arch.Machine.banks = 1; profile = Arch.Bank.Silicon; noise_seed = Some 77 }
  in
  let bank = Arch.Machine.bank machine 0 in
  (* |w| = 0.75 on every lane (away from the ADC clip point, so the
     gaussian is not truncated) *)
  Arch.Bitcell_array.write (Arch.Bank.array bank) ~word_row:0
    (Array.make lanes (-96));
  let task =
    Promise.Isa.Task.make
      ~op_param:{ Promise.Isa.Op_param.default with Promise.Isa.Op_param.swing }
      ~class1:Opcode.C1_aread
      ~class2:{ Opcode.asd = Opcode.Asd_none; avd = true }
      ~class3:Opcode.C3_adc ~class4:Opcode.C4_accumulate ()
  in
  let n = 3000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    match
      Arch.Bank.run_iteration bank ~task ~iteration:0 ~active_lanes:lanes
        ~adc_gain:1.0
    with
    | Arch.Bank.Sample s ->
        sum := !sum +. s;
        sum2 := !sum2 +. (s *. s)
    | _ -> fail "sample expected"
  done;
  let mean = !sum /. float_of_int n in
  let sigma = sqrt (Float.max 0.0 ((!sum2 /. float_of_int n) -. (mean *. mean))) in
  let predicted =
    0.75 *. Promise.Analog.Noise.aggregate_sigma ~swing ~n:lanes
  in
  (* ADC quantization adds lsb^2/12 variance on top of the analog noise *)
  let adc_var = Promise.Analog.Adc.lsb ** 2.0 /. 12.0 in
  let predicted_total = sqrt ((predicted ** 2.0) +. adc_var) in
  check bool
    (Printf.sprintf "empirical sigma %.5f ~ predicted %.5f" sigma
       predicted_total)
    true
    (Float.abs (sigma -. predicted_total) /. predicted_total < 0.15)

let test_runtime_segmented_vector () =
  (* 2048-element vectors: 8 banks x 2 segments, X_PRD = 1, TH groups
     the two per-row samples (ACC_NUM = 1) *)
  let rng = Promise.Analog.Rng.create 66 in
  let cols = 2048 and rows = 4 in
  let w =
    Array.init rows (fun _ ->
        Array.init cols (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init cols (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let k =
    Dsl.kernel ~name:"wide2048"
      ~decls:
        [
          Dsl.matrix "W" ~rows ~cols;
          Dsl.vector "x" ~len:cols;
          Dsl.out_vector "out" ~len:rows;
        ]
      [ Dsl.for_store ~iterations:rows ~out:"out" (Dsl.l1_distance "W" "x") ]
  in
  (* check the lowered shape first *)
  let g = ok_or_fail (Pipeline.compile k) in
  let program = ok_or_fail (Pipeline.codegen g) in
  (match program.Program.tasks with
  | [ t ] ->
      check int "x_prd 1" 1 t.Task.op_param.Op_param.x_prd;
      check int "acc groups 2 segments" 1 t.Task.op_param.Op_param.acc_num;
      check int "8 iterations" 7 t.Task.rpt_num;
      check int "8 banks" 8 (Task.banks t)
  | _ -> fail "one task expected");
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W" w;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel ~banks:8 k b)).Runtime.values in
  check int "four outputs" rows (Array.length out);
  Array.iteri
    (fun i v ->
      let reference = Ml.Linalg.l1_distance w.(i) x in
      check (close (0.1 *. reference)) "segmented L1" reference v)
    out

let test_runtime_chained_unnormalized_producer () =
  (* a distance producer emits values far outside [-1, 1); the consumer
     multiply kernel must renormalize its X operand transparently *)
  let rng = Promise.Analog.Rng.create 55 in
  let w1 =
    Array.init 6 (fun _ ->
        Array.init 32 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init 32 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let w2 =
    Array.init 3 (fun _ ->
        Array.init 6 (fun _ -> Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let k =
    Dsl.kernel ~name:"chain"
      ~decls:
        [
          Dsl.matrix "W1" ~rows:6 ~cols:32;
          Dsl.vector "x" ~len:32;
          Dsl.out_vector "d" ~len:6;
          Dsl.matrix "W2" ~rows:3 ~cols:6;
          Dsl.out_vector "y" ~len:3;
        ]
      [
        Dsl.for_store ~iterations:6 ~out:"d" (Dsl.l1_distance "W1" "x");
        Dsl.for_store ~iterations:3 ~out:"y" (Dsl.dot "W2" "d");
      ]
  in
  let b = Runtime.bindings () in
  Runtime.bind_matrix b "W1" w1;
  Runtime.bind_matrix b "W2" w2;
  Runtime.bind_vector b "x" x;
  let out = (final (run_kernel k b)).Runtime.values in
  let d = Array.map (fun row -> Ml.Linalg.l1_distance row x) w1 in
  let reference = Ml.Linalg.mat_vec w2 d in
  Array.iteri
    (fun i v ->
      check
        (close (0.5 +. (0.05 *. Float.abs reference.(i))))
        "chained value" reference.(i) v)
    out

let qcheck_random_kernels_match_reference =
  (* end-to-end property: random kernel geometry and distance metric,
     random data, ideal machine — results track the float reference
     within the quantization budget *)
  let gen =
    QCheck.Gen.(
      quad (int_range 1 16) (int_range 2 300) (int_range 0 2) (int_range 0 10000))
  in
  QCheck.Test.make ~name:"random kernels match the float reference" ~count:25
    (QCheck.make gen)
    (fun (rows, cols, op, seed) ->
      let rng = Promise.Analog.Rng.create seed in
      let w =
        Array.init rows (fun _ ->
            Array.init cols (fun _ ->
                Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
      in
      let x =
        Array.init cols (fun _ ->
            Promise.Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9)
      in
      (* the dominant error is the 8-bit ADC quantization of per-bank
         means: worst case ~ lanes x lsb/2 per bank, so the bound
         scales with the vector length *)
      let quant = 0.05 +. (0.004 *. float_of_int cols) in
      let body, reference, tolerance_of =
        match op with
        | 0 ->
            ( Dsl.dot "W" "x",
              (fun i -> Ml.Linalg.dot w.(i) x),
              fun r -> quant +. (0.02 *. Float.abs r) )
        | 1 ->
            ( Dsl.l1_distance "W" "x",
              (fun i -> Ml.Linalg.l1_distance w.(i) x),
              fun r -> quant +. (0.05 *. r) )
        | _ ->
            ( Dsl.l2_distance "W" "x",
              (fun i -> Ml.Linalg.l2_distance w.(i) x),
              fun r -> quant +. (0.08 *. r) )
      in
      let k =
        Dsl.kernel ~name:"prop"
          ~decls:
            [
              Dsl.matrix "W" ~rows ~cols;
              Dsl.vector "x" ~len:cols;
              Dsl.out_vector "out" ~len:rows;
            ]
          [ Dsl.for_store ~iterations:rows ~out:"out" body ]
      in
      let b = Runtime.bindings () in
      Runtime.bind_matrix b "W" w;
      Runtime.bind_vector b "x" x;
      let out = (final (run_kernel ~banks:8 k b)).Runtime.values in
      Array.length out = rows
      && Array.for_all
           (fun ok -> ok)
           (Array.mapi
              (fun i v ->
                let r = reference i in
                Float.abs (v -. r) <= tolerance_of r)
              out))

(* ------------------------------------------------------------------ *)
(* Allocator (concurrent bank assignment)                              *)
(* ------------------------------------------------------------------ *)

let chunk_task ~multi_bank ~rpt_num =
  Task.make ~rpt_num ~multi_bank ~class1:Opcode.C1_aread
    ~class2:{ Opcode.asd = Opcode.Asd_sign_mult; avd = true }
    ~class3:Opcode.C3_adc ~class4:Opcode.C4_sigmoid ()

let test_allocator_parallel_level () =
  (* four 8-bank chunks fit a 36-bank machine in one wave *)
  let tasks = List.init 4 (fun _ -> (chunk_task ~multi_bank:3 ~rpt_num:127, 0)) in
  let p = ok_or_fail_s (Allocator.For_tests.plan ~total_banks:36 tasks) in
  check int "peak banks" 32 p.Allocator.banks_used;
  (* all start together; makespan = one chunk's steady time *)
  check int "makespan" (128 * 14) p.Allocator.makespan;
  check int "interval = slowest level" (128 * 14) p.Allocator.pipelined_interval

let test_allocator_waves_when_full () =
  (* four 8-bank chunks on a 16-bank machine: two waves *)
  let tasks = List.init 4 (fun _ -> (chunk_task ~multi_bank:3 ~rpt_num:127, 0)) in
  let p = ok_or_fail_s (Allocator.For_tests.plan ~total_banks:16 tasks) in
  check int "peak banks" 16 p.Allocator.banks_used;
  check int "two waves" (2 * 128 * 14) p.Allocator.makespan

let test_allocator_levels_sequence () =
  (* two levels run back to back; the interval is the slower one *)
  let tasks =
    [
      (chunk_task ~multi_bank:3 ~rpt_num:127, 0);
      (chunk_task ~multi_bank:0 ~rpt_num:9, 1);
    ]
  in
  let p = ok_or_fail_s (Allocator.For_tests.plan ~total_banks:8 tasks) in
  check int "makespan sums levels" ((128 * 14) + (10 * 14)) p.Allocator.makespan;
  check int "interval = level 0" (128 * 14) p.Allocator.pipelined_interval

let test_allocator_rejects_oversized_task () =
  match Allocator.For_tests.plan ~total_banks:4 [ (chunk_task ~multi_bank:3 ~rpt_num:0, 0) ] with
  | Error _ -> ()
  | Ok _ -> fail "8-bank task on a 4-bank machine must be rejected"

let test_allocator_of_program_level_counts () =
  let program =
    Program.make ~name:"p"
      [
        chunk_task ~multi_bank:3 ~rpt_num:127;
        chunk_task ~multi_bank:3 ~rpt_num:127;
        chunk_task ~multi_bank:0 ~rpt_num:9;
      ]
  in
  (match Allocator.of_program ~total_banks:36 ~levels:[ 2; 1 ] program with
  | Ok p ->
      check int "peak = two 8-bank chunks" 16 p.Allocator.banks_used
  | Error msg -> fail msg);
  match Allocator.of_program ~total_banks:36 ~levels:[ 2; 2 ] program with
  | Error _ -> ()
  | Ok _ -> fail "mismatched level counts must be rejected"

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_compile_to_binary () =
  let k =
    Dsl.kernel ~name:"tm"
      ~decls:
        [
          Dsl.matrix "W" ~rows:64 ~cols:256;
          Dsl.vector "x" ~len:256;
          Dsl.out_vector "out" ~len:64;
        ]
      [
        Dsl.for_store ~iterations:64 ~out:"out" (Dsl.l1_distance "W" "x");
        Dsl.argmin "out";
      ]
  in
  let r = ok_or_fail (Pipeline.compile_to_binary k) in
  check int "one task program" 1 (Program.length r.Pipeline.program);
  check int "48-bit task = 6 bytes" 6 (Bytes.length r.Pipeline.binary);
  check int "search space 8" 8 r.Pipeline.search_space;
  check bool "assembly mentions aSUBT" true
    (String.length r.Pipeline.assembly > 0);
  (* binary round-trips back to the same program *)
  match Program.For_tests.of_binary ~name:r.Pipeline.program.Program.name r.Pipeline.binary with
  | Ok p -> check bool "binary roundtrip" true (Program.For_tests.equal p r.Pipeline.program)
  | Error msg -> fail msg

let suite =
  [
    ("classes_of multiply", `Quick, test_classes_of_mul);
    ("classes_of L1", `Quick, test_classes_of_l1);
    ("classes_of Vo_none square", `Quick, test_classes_of_vo_none_square);
    ("classes_of invalid combo", `Quick, test_classes_of_invalid_combo);
    ("threshold code", `Quick, test_threshold_code);
    ("lower chunk fields", `Quick, test_lower_chunk_fields);
    ("lower segments", `Quick, test_lower_segments);
    ("lower chunked program", `Quick, test_lower_chunked_program);
    ("destination routing", `Quick, test_destination_routing);
    ("program of graph", `Quick, test_program_of_graph);
    ("Sakr bound formula", `Quick, test_bound_formula);
    ("bound decreases with bits", `Quick, test_bound_decreases_with_bits);
    ("min activation bits", `Quick, test_min_activation_bits);
    ("infeasible budget", `Quick, test_min_activation_bits_infeasible);
    ("stats of a trained MLP", `Quick, test_stats_of_trained_mlp);
    ("Eq. (3) predicate", `Quick, test_eq3_predicate);
    ("min swing monotone in N", `Quick, test_min_swing_monotone_in_n);
    ("min swing monotone in bits", `Quick, test_min_swing_monotone_in_bits);
    ("min swing impossible", `Quick, test_min_swing_none_when_impossible);
    ("optimize DNN graph", `Quick, test_optimize_graph_assigns_per_layer_swings);
    ("brute force picks cheapest", `Quick, test_optimize_single_picks_cheapest_passing);
    ("brute force fallback", `Quick, test_optimize_single_falls_back_to_max);
    ("search space sizes", `Quick, test_search_space);
    ("runtime dot vs reference", `Quick, test_runtime_dot_matches_reference);
    ("runtime L1 argmin vs reference", `Quick, test_runtime_l1_argmin_matches_reference);
    ("runtime L2 values", `Quick, test_runtime_l2_values);
    ("runtime threshold decision", `Quick, test_runtime_threshold_decision);
    ("runtime multibank long vector", `Quick, test_runtime_multibank_long_vector);
    ("runtime whole-array statistics", `Quick, test_runtime_mean_statistics);
    ("runtime DNN chain", `Quick, test_runtime_dnn_chain);
    ("runtime unbound arrays", `Quick, test_runtime_unbound_arrays_error);
    ("runtime W row width", `Quick, test_runtime_w_row_width);
    ("runtime ADC gain estimation", `Quick, test_runtime_adc_gain_estimation);
    ("runtime ADC gain allocation", `Quick, test_runtime_adc_gain_allocation);
    ("runtime compare kernel", `Quick, test_runtime_compare_kernel);
    ("Eq. (3) empirical noise", `Slow, test_eq3_empirical_aggregate_noise);
    ("pipeline compile to binary", `Quick, test_pipeline_compile_to_binary);
    ("allocator parallel level", `Quick, test_allocator_parallel_level);
    ("allocator waves when full", `Quick, test_allocator_waves_when_full);
    ("allocator level sequencing", `Quick, test_allocator_levels_sequence);
    ("allocator rejects oversized", `Quick, test_allocator_rejects_oversized_task);
    ("allocator of_program", `Quick, test_allocator_of_program_level_counts);
    ("runtime chained unnormalized producer", `Quick,
      test_runtime_chained_unnormalized_producer);
    ("runtime segmented vector (X_PRD)", `Quick, test_runtime_segmented_vector);
    QCheck_alcotest.to_alcotest qcheck_random_kernels_match_reference;
    QCheck_alcotest.to_alcotest qcheck_gain_preview_matches_oracle;
  ]

let () = Alcotest.run "promise-compiler" [ ("compiler", suite) ]
