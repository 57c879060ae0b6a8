(* Architecture simulator tests: timing, storage, TH unit, bank
   semantics, layout planning, machine execution. *)

open Promise.Arch
open Promise.Isa
module Analog = Promise.Analog

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let close eps = Alcotest.float eps

let dot_task ?(rpt_num = 0) ?(multi_bank = 0) ?(op_param = Op_param.default) ()
    =
  Task.make ~op_param ~rpt_num ~multi_bank ~class1:Opcode.C1_aread
    ~class2:{ Opcode.asd = Opcode.Asd_sign_mult; avd = true }
    ~class3:Opcode.C3_adc ~class4:Opcode.C4_accumulate ()

let l1_task ?(rpt_num = 0) ?(multi_bank = 0) ?(class4 = Opcode.C4_accumulate)
    ?(op_param = Op_param.default) () =
  Task.make ~op_param ~rpt_num ~multi_bank ~class1:Opcode.C1_asubt
    ~class2:{ Opcode.asd = Opcode.Asd_absolute; avd = true }
    ~class3:Opcode.C3_adc ~class4 ()

(* ------------------------------------------------------------------ *)
(* Timing (Table 3)                                                    *)
(* ------------------------------------------------------------------ *)

let test_table3_delays () =
  check int "aREAD 5" 5 (Timing.class1_delay Opcode.C1_aread);
  check int "aSUBT 7" 7 (Timing.class1_delay Opcode.C1_asubt);
  check int "write 2" 2 (Timing.class1_delay Opcode.C1_write);
  check int "square 8" 8
    (Timing.class2_delay { Opcode.asd = Opcode.Asd_square; avd = true });
  check int "mult 14" 14
    (Timing.class2_delay { Opcode.asd = Opcode.Asd_sign_mult; avd = true });
  check int "ADC 138" 138 (Timing.class3_latency Opcode.C3_adc);
  check int "min 4" 4 (Timing.class4_delay Opcode.C4_min);
  check int "sigmoid 3" 3 (Timing.class4_delay Opcode.C4_sigmoid)

let test_tp_is_max_of_used_stages () =
  (* k-NN L1: aSUBT(7) + absolute(6) + min(4) -> TP = 7 (paper §6.2) *)
  check int "L1 TP = 7" 7 (Timing.task_tp (l1_task ~class4:Opcode.C4_min ()));
  (* dot product: aREAD(5) + mult(14) -> TP = 14 *)
  check int "dot TP = 14" 14 (Timing.task_tp (dot_task ()));
  (* L2: aSUBT(7) + square(8) -> TP = 8 *)
  let l2 =
    Task.make ~class1:Opcode.C1_asubt
      ~class2:{ Opcode.asd = Opcode.Asd_square; avd = true }
      ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ()
  in
  check int "L2 TP = 8" 8 (Timing.task_tp l2)

let test_worst_case_tp () =
  (* accommodating every ISA op costs TP = 14: up to 2x over a task
     that only needs 7 (paper §3.2) *)
  check int "worst-case TP" 14 (Timing.worst_case_tp ());
  let l1 = l1_task ~class4:Opcode.C4_min () in
  let ratio =
    float_of_int (Timing.worst_case_tp ()) /. float_of_int (Timing.task_tp l1)
  in
  check bool "2x degradation for L1 kernels" true (ratio >= 1.9)

let test_task_cycles () =
  let t = l1_task ~rpt_num:127 ~class4:Opcode.C4_min () in
  (* fill = 7 + 6 + 138 + 4; 127 more iterations at TP = 7 *)
  check int "fill" (7 + 6 + 138 + 4) (Timing.fill_cycles t);
  check int "cycles" (155 + (127 * 7)) (Timing.task_cycles t)

let test_knn_decision_rate () =
  (* paper: 1.12 M decisions/s for L1 over 128 candidates; steady-state
     iteration time = 128 x 7 ns = 896 ns *)
  let t = l1_task ~rpt_num:127 ~class4:Opcode.C4_min () in
  let steady_ns = float_of_int (Task.iterations t * Timing.task_tp t) in
  let decisions_per_s = 1e9 /. steady_ns in
  check (close 1e4) "~1.12 M/s" 1.116e6 decisions_per_s

let test_throughput_formula () =
  (* f = 128 / TP per bank *)
  check (close 1e-9) "128/7" (128.0 /. 7.0)
    (Timing.For_tests.throughput_ops_per_ns (l1_task ~class4:Opcode.C4_min ()))

let test_unpipelined_cm_latency () =
  let l1 = l1_task ~class4:Opcode.C4_min () in
  check int "CM iteration = S1+S2+ADC+TH" (7 + 6 + 138 + 4)
    (Timing.For_tests.unpipelined_iteration_cycles l1)

(* ------------------------------------------------------------------ *)
(* Bit-cell array                                                      *)
(* ------------------------------------------------------------------ *)

let test_bitcell_write_read () =
  let a = Bitcell_array.create () in
  let values = Array.init Params.lanes (fun i -> (i mod 255) - 127) in
  Bitcell_array.write a ~word_row:17 values;
  let back = Bitcell_array.read a ~word_row:17 in
  Array.iteri (fun i v -> check int "stored code" values.(i) v) back

let test_bitcell_partial_write_zero_pads () =
  let a = Bitcell_array.create () in
  Bitcell_array.write a ~word_row:0 [| 1; 2; 3 |];
  check int "lane 3 zero" 0 (Bitcell_array.For_tests.read_lane a ~word_row:0 ~lane:3);
  check int "lane 127 zero" 0 (Bitcell_array.For_tests.read_lane a ~word_row:0 ~lane:127)

let test_bitcell_bad_inputs () =
  let a = Bitcell_array.create () in
  (match Bitcell_array.write a ~word_row:128 [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "word row 128 must be rejected");
  match Bitcell_array.write a ~word_row:0 [| 200 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "code 200 must be rejected"

let test_bitcell_msb_lsb_view () =
  let a = Bitcell_array.create () in
  Bitcell_array.write a ~word_row:3 [| 0x5A - 128 |];
  (* code -38 = 0xDA as unsigned byte: MSB nibble 0xD, LSB 0xA *)
  let msb, lsb = Bitcell_array.For_tests.msb_lsb_view a ~word_row:3 ~lane:0 in
  check int "msb nibble" 0xD msb;
  check int "lsb nibble" 0xA lsb

let test_bitcell_aread_ideal () =
  let a = Bitcell_array.create () in
  Bitcell_array.write a ~word_row:5 [| 64; -64; 127; -128 |];
  let v =
    Bitcell_array.aread a ~word_row:5 ~swing:7 ~noise:Analog.Noise.disabled
      ~lut:Analog.Lut.identity
  in
  check (close 1e-6) "0.5" 0.5 v.(0);
  check (close 1e-6) "-0.5" (-0.5) v.(1);
  check (close 1e-6) "127/128" (127.0 /. 128.0) v.(2);
  check (close 1e-6) "-1" (-1.0) v.(3)

let test_bitcell_quantize () =
  check int "0.5 -> 64" 64 (Bitcell_array.For_tests.quantize 0.5);
  check int "clamps" 127 (Bitcell_array.For_tests.quantize 2.0);
  check int "clamps low" (-128) (Bitcell_array.For_tests.quantize (-2.0))

(* ------------------------------------------------------------------ *)
(* X-REG                                                               *)
(* ------------------------------------------------------------------ *)

let test_xreg_load_get () =
  let x = Xreg.create () in
  Xreg.load x ~index:2 [| 10; -20; 30 |];
  let v = Xreg.get x ~index:2 in
  check int "v0" 10 v.(0);
  check int "v1" (-20) v.(1);
  check int "zero pad" 0 v.(5);
  let n = Xreg.get_normalized x ~index:2 in
  check (close 1e-9) "normalized" (10.0 /. 128.0) n.(0)

let test_xreg_staging () =
  let x = Xreg.create () in
  Xreg.stage_element x ~index:0 5;
  Xreg.stage_element x ~index:0 6;
  check int "staged 2" 2 (Xreg.For_tests.staged_count x ~index:0);
  let v = Xreg.get x ~index:0 in
  check int "lane 0" 5 v.(0);
  check int "lane 1" 6 v.(1)

let test_xreg_staging_wraps () =
  let x = Xreg.create () in
  for i = 0 to Params.lanes do
    Xreg.stage_element x ~index:1 (i mod 100)
  done;
  (* the 129th element lands on lane 0 *)
  check int "wrap" (Params.lanes mod 100) (Xreg.get x ~index:1).(0)

let test_xreg_bounds () =
  let x = Xreg.create () in
  match Xreg.load x ~index:8 [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "index 8 must be rejected"

(* ------------------------------------------------------------------ *)
(* TH unit                                                             *)
(* ------------------------------------------------------------------ *)

let th_config ?(op = Opcode.C4_accumulate) ?(acc_num = 0) ?(threshold = 0.0)
    ?(gain = 1.0) ?(des = Opcode.Des_output_buffer) () =
  { Th_unit.op; acc_num; threshold; gain; des }

let test_th_accumulate_groups () =
  let th = Th_unit.create (th_config ~acc_num:1 ~gain:2.0 ()) in
  check bool "first sample buffered" true (Th_unit.push th 1.0 = None);
  (match Th_unit.push th 2.0 with
  | Some e -> check (close 1e-9) "gained group sum" 6.0 e.Th_unit.value
  | None -> fail "group of 2 should emit");
  check int "one op" 1 (Th_unit.ops_executed th)

let test_th_mean () =
  let th = Th_unit.create (th_config ~op:Opcode.C4_mean ~acc_num:3 ()) in
  ignore (Th_unit.push th 1.0);
  ignore (Th_unit.push th 2.0);
  ignore (Th_unit.push th 3.0);
  match Th_unit.push th 6.0 with
  | Some e -> check (close 1e-9) "mean of 4" 3.0 e.Th_unit.value
  | None -> fail "mean group should emit"

let test_th_threshold () =
  let th =
    Th_unit.create (th_config ~op:Opcode.C4_threshold ~threshold:0.5 ())
  in
  (match Th_unit.push th 0.7 with
  | Some e -> check (close 1e-9) "above" 1.0 e.Th_unit.value
  | None -> fail "emit expected");
  match Th_unit.push th 0.3 with
  | Some e -> check (close 1e-9) "below" 0.0 e.Th_unit.value
  | None -> fail "emit expected"

let test_th_min_argmin () =
  let th = Th_unit.create (th_config ~op:Opcode.C4_min ()) in
  List.iter (fun v -> ignore (Th_unit.push th v)) [ 5.0; 2.0; 7.0; 2.5 ];
  (match Th_unit.argext th with
  | Some (i, v) ->
      check int "argmin index" 1 i;
      check (close 1e-9) "min value" 2.0 v
  | None -> fail "extremum expected");
  match Th_unit.finish th with
  | Some e -> check (close 1e-9) "emitted min" 2.0 e.Th_unit.value
  | None -> fail "finish should emit"

let test_th_max () =
  let th = Th_unit.create (th_config ~op:Opcode.C4_max ()) in
  List.iter (fun v -> ignore (Th_unit.push th v)) [ -5.0; -2.0; -7.0 ];
  match Th_unit.argext th with
  | Some (i, v) ->
      check int "argmax index" 1 i;
      check (close 1e-9) "max value" (-2.0) v
  | None -> fail "extremum expected"

let test_th_sigmoid_relu () =
  let th = Th_unit.create (th_config ~op:Opcode.C4_sigmoid ()) in
  (match Th_unit.push th 0.0 with
  | Some e -> check (close 1e-2) "sigmoid(0)" 0.5 e.Th_unit.value
  | None -> fail "emit expected");
  let th = Th_unit.create (th_config ~op:Opcode.C4_relu ()) in
  (match Th_unit.push th (-3.0) with
  | Some e -> check (close 1e-9) "relu(-3)" 0.0 e.Th_unit.value
  | None -> fail "emit expected");
  match Th_unit.push th 3.0 with
  | Some e -> check (close 1e-9) "relu(3)" 3.0 e.Th_unit.value
  | None -> fail "emit expected"

let test_th_partial_group_flush () =
  let th = Th_unit.create (th_config ~acc_num:3 ()) in
  ignore (Th_unit.push th 1.0);
  ignore (Th_unit.push th 2.0);
  match Th_unit.finish th with
  | Some e -> check (close 1e-9) "partial flush" 3.0 e.Th_unit.value
  | None -> fail "partial group should flush"

let test_pwl_sigmoid_accuracy () =
  let exact x = 1.0 /. (1.0 +. exp (-.x)) in
  let max_err = ref 0.0 in
  let x = ref (-8.0) in
  while !x <= 8.0 do
    max_err :=
      Float.max !max_err (Float.abs (Th_unit.pwl_sigmoid !x -. exact !x));
    x := !x +. 0.01
  done;
  check bool "PLAN max error < 0.02" true (!max_err < 0.02)

let test_pwl_sigmoid_continuous_at_seams () =
  (* the PLAN segments must meet (the classic 2.375 breakpoint leaves a
     ~0.004 step; we use the exact intersection 7/3) *)
  List.iter
    (fun seam ->
      let below = Th_unit.pwl_sigmoid (seam -. 1e-9) in
      let above = Th_unit.pwl_sigmoid (seam +. 1e-9) in
      check (close 1e-6) "continuous at seam" below above)
    [ 1.0; 7.0 /. 3.0; 5.0; -1.0; -7.0 /. 3.0; -5.0 ]

let qcheck_pwl_sigmoid_monotone =
  QCheck.Test.make ~name:"pwl sigmoid monotone and bounded" ~count:500
    (QCheck.pair
       (QCheck.float_range (-10.0) 10.0)
       (QCheck.float_range (-10.0) 10.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let ya = Th_unit.pwl_sigmoid lo and yb = Th_unit.pwl_sigmoid hi in
      ya <= yb +. 1e-9 && ya >= 0.0 && yb <= 1.0)

(* ------------------------------------------------------------------ *)
(* Bank                                                                *)
(* ------------------------------------------------------------------ *)

let ideal_bank () =
  Bank.create ~profile:Bank.Ideal ~noise:Analog.Noise.disabled ()

let test_bank_analog_scale () =
  check (close 1e-9) "dot scale 1" 1.0 (Bank.analog_scale (dot_task ()));
  check (close 1e-9) "L1 scale 2" 2.0 (Bank.analog_scale (l1_task ()));
  let l2 =
    Task.make ~class1:Opcode.C1_asubt
      ~class2:{ Opcode.asd = Opcode.Asd_square; avd = true }
      ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ()
  in
  check (close 1e-9) "L2 scale 4" 4.0 (Bank.analog_scale l2)

let test_bank_dot_iteration () =
  let b = ideal_bank () in
  (* w = [0.5, -0.25], x = [0.5, 0.5]: sum(w*x) = 0.125, mean over 2 *)
  Bitcell_array.write (Bank.array b) ~word_row:0 [| 64; -32 |];
  Xreg.load (Bank.xreg b) ~index:0 [| 64; 64 |];
  match
    Bank.run_iteration b ~task:(dot_task ()) ~iteration:0 ~active_lanes:2
      ~adc_gain:8.0
  with
  | Bank.Sample s -> check (close 2e-3) "dot mean" 0.0625 s
  | _ -> fail "expected an ADC sample"

let test_bank_l1_iteration () =
  let b = ideal_bank () in
  (* |0.5 - (-0.5)| + |(-0.25) - 0.25| = 1.5 *)
  Bitcell_array.write (Bank.array b) ~word_row:0 [| 64; -32 |];
  Xreg.load (Bank.xreg b) ~index:0 [| -64; 32 |];
  match
    Bank.run_iteration b ~task:(l1_task ()) ~iteration:0 ~active_lanes:2
      ~adc_gain:1.0
  with
  | Bank.Sample s ->
      (* true sum = s * lanes * scale = s * 2 * 2 *)
      check (close 0.02) "L1 distance" 1.5 (s *. 4.0)
  | _ -> fail "expected an ADC sample"

let test_bank_w_addr_increments () =
  let b = ideal_bank () in
  Bitcell_array.write (Bank.array b) ~word_row:3 [| 64 |];
  Bitcell_array.write (Bank.array b) ~word_row:4 [| -64 |];
  let task =
    dot_task ~op_param:{ Op_param.default with Op_param.w_addr = 3 } ()
  in
  Xreg.load (Bank.xreg b) ~index:0 [| 127 |];
  let sample i =
    match
      Bank.run_iteration b ~task ~iteration:i ~active_lanes:1 ~adc_gain:1.0
    with
    | Bank.Sample s -> s
    | _ -> fail "sample expected"
  in
  check bool "iteration 0 positive" true (sample 0 > 0.0);
  check bool "iteration 1 negative" true (sample 1 < 0.0)

let test_bank_digital_read () =
  let b = ideal_bank () in
  Bitcell_array.write (Bank.array b) ~word_row:9 [| 42 |];
  let task =
    Task.make
      ~op_param:{ Op_param.default with Op_param.w_addr = 9 }
      ~class1:Opcode.C1_read
      ~class2:{ Opcode.asd = Opcode.Asd_none; avd = false }
      ~class3:Opcode.C3_none ~class4:Opcode.C4_accumulate ()
  in
  match
    Bank.run_iteration b ~task ~iteration:0 ~active_lanes:1 ~adc_gain:1.0
  with
  | Bank.Digital_vector v -> check int "read back" 42 v.(0)
  | _ -> fail "digital vector expected"

let test_bank_write () =
  let b = ideal_bank () in
  Bank.For_tests.set_write_data b [| 7; 8 |];
  let task =
    Task.make ~class1:Opcode.C1_write
      ~class2:{ Opcode.asd = Opcode.Asd_none; avd = false }
      ~class3:Opcode.C3_none ~class4:Opcode.C4_accumulate ()
  in
  (match
     Bank.run_iteration b ~task ~iteration:0 ~active_lanes:1 ~adc_gain:1.0
   with
  | Bank.Idle -> ()
  | _ -> fail "write is idle on the analog path");
  check int "written" 7
    (Bitcell_array.For_tests.read_lane (Bank.array b) ~word_row:0 ~lane:0)

let test_bank_adc_gain_reduces_quantization () =
  let b = ideal_bank () in
  Bitcell_array.write (Bank.array b) ~word_row:0 [| 3 |];
  Xreg.load (Bank.xreg b) ~index:0 [| 3 |];
  (* tiny product: 3/128 * 3/128, far below one ADC lsb *)
  let sample gain =
    match
      Bank.run_iteration b ~task:(dot_task ()) ~iteration:0 ~active_lanes:1
        ~adc_gain:gain
    with
    | Bank.Sample s -> s
    | _ -> fail "sample expected"
  in
  let truth = 3.0 /. 128.0 *. (3.0 /. 128.0) in
  let err_lo = Float.abs (sample 1.0 -. truth) in
  let err_hi = Float.abs (sample 64.0 -. truth) in
  check bool "gain reduces quantization error" true (err_hi < err_lo)

(* Every write moves the epoch by exactly one — direct writes, a
   Class-1 write launch and Machine staging alike — while reads and
   rejected writes leave it. The runtime keeps weights resident on
   this. *)
let test_bitcell_epoch () =
  let a = Bitcell_array.create () in
  check int "fresh array" 0 (Bitcell_array.epoch a);
  Bitcell_array.write a ~word_row:0 [| 1; 2 |];
  Bitcell_array.write a ~word_row:0 [| 1; 2 |];
  check int "a rewrite of the same codes still counts" 2
    (Bitcell_array.epoch a);
  (match Bitcell_array.write a ~word_row:0 [| 200 |] with
  | exception Invalid_argument _ -> ()
  | () -> fail "code 200 must be rejected");
  ignore (Bitcell_array.read a ~word_row:0);
  ignore (Bitcell_array.For_tests.read_lane a ~word_row:0 ~lane:1);
  check int "reads and rejected writes leave it" 2 (Bitcell_array.epoch a);
  let b = ideal_bank () in
  Bank.For_tests.set_write_data b [| 7 |];
  let write_task =
    Task.make ~class1:Opcode.C1_write
      ~class2:{ Opcode.asd = Opcode.Asd_none; avd = false }
      ~class3:Opcode.C3_none ~class4:Opcode.C4_accumulate ()
  in
  ignore
    (Bank.run_iteration b ~task:write_task ~iteration:0 ~active_lanes:1
       ~adc_gain:1.0);
  check int "a Class-1 write launch" 1 (Bitcell_array.epoch (Bank.array b));
  let m = Machine.create (Machine.ideal_config ~banks:2) in
  let plan = Layout.plan_exn ~vector_len:200 ~rows:3 () in
  Machine.load_weights m ~group:0 ~base:0 ~plan
    (Array.make 3 (Array.make 200 5));
  for bank = 0 to 1 do
    check int "staging writes rows x segments per bank"
      (3 * plan.Layout.segments)
      (Bitcell_array.epoch (Bank.array (Machine.bank m bank)))
  done

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let plan_exn = Layout.plan_exn

let test_layout_small_vector () =
  let p = plan_exn ~vector_len:100 ~rows:10 () in
  check int "1 bank" 1 p.Layout.banks;
  check int "1 segment" 1 p.Layout.segments;
  check int "100 lanes" 100 p.Layout.lanes_per_bank;
  check int "1 task" 1 p.Layout.tasks

let test_layout_multibank () =
  let p = plan_exn ~vector_len:512 ~rows:127 () in
  (* the paper's §3.4 example: 512 pixels over 4 banks *)
  check int "4 banks" 4 p.Layout.banks;
  check int "mb code 2" 2 p.Layout.multi_bank;
  check int "128 lanes" 128 p.Layout.lanes_per_bank;
  check int "1 segment" 1 p.Layout.segments

let test_layout_segments () =
  (* 4096 elements: 8 banks x 4 segments x 128 lanes *)
  let p = plan_exn ~vector_len:4096 ~rows:2 () in
  check int "8 banks" 8 p.Layout.banks;
  check int "4 segments" 4 p.Layout.segments;
  check int "x_prd 3" 3 (Layout.x_prd p)

let test_layout_row_chunking () =
  let p = plan_exn ~vector_len:784 ~rows:512 () in
  check int "8 banks" 8 p.Layout.banks;
  check int "128 rows per task" 128 p.Layout.rows_per_task;
  check int "4 chunks" 4 p.Layout.tasks;
  check int "last chunk rows" 128 (Layout.chunk_rows p 3)

let test_layout_uneven_chunk () =
  let p = plan_exn ~vector_len:128 ~rows:130 () in
  check int "2 tasks" 2 p.Layout.tasks;
  check int "first chunk" 128 (Layout.chunk_rows p 0);
  check int "last chunk" 2 (Layout.chunk_rows p 1)

let test_layout_too_large () =
  match Layout.plan ~vector_len:((8 * 4 * 128) + 1) ~rows:1 () with
  | Error _ -> ()
  | Ok _ -> fail "oversized vector must be rejected"

let test_layout_slices_cover_vector () =
  let p = plan_exn ~vector_len:300 ~rows:1 () in
  let v = Array.init 300 (fun i -> (i mod 250) - 125) in
  (* every element appears exactly once across (bank, segment, lane) *)
  let seen = Hashtbl.create 512 in
  for bank = 0 to p.Layout.banks - 1 do
    for segment = 0 to p.Layout.segments - 1 do
      let slice = Layout.slice_of_vector p v ~bank ~segment in
      Array.iteri
        (fun lane code ->
          let e =
            (((bank * p.Layout.segments) + segment) * p.Layout.lanes_per_bank)
            + lane
          in
          if e < 300 then begin
            check int "slice value" v.(e) code;
            if Hashtbl.mem seen e then fail "duplicate coverage";
            Hashtbl.add seen e ()
          end
          else check int "padding zero" 0 code)
        slice
    done
  done;
  check int "all covered" 300 (Hashtbl.length seen)

let qcheck_layout_invariants =
  QCheck.Test.make ~name:"layout plan invariants" ~count:300
    (QCheck.pair (QCheck.int_range 1 4096) (QCheck.int_range 1 1024))
    (fun (vector_len, rows) ->
      match Layout.plan ~vector_len ~rows () with
      | Error _ -> false
      | Ok p ->
          p.Layout.lanes_per_bank >= 1
          && p.Layout.lanes_per_bank <= 128
          && p.Layout.banks * p.Layout.segments * p.Layout.lanes_per_bank
             >= vector_len
          && p.Layout.rows_per_task * p.Layout.segments <= 128
          && p.Layout.tasks * p.Layout.rows_per_task >= rows
          && p.Layout.segments >= 1
          && p.Layout.segments <= 4
          && p.Layout.banks = 1 lsl p.Layout.multi_bank)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let simple_th ?(op = Opcode.C4_accumulate) ~gain () =
  {
    Th_unit.op;
    acc_num = 0;
    threshold = 0.0;
    gain;
    des = Opcode.Des_output_buffer;
  }

let test_machine_multibank_dot () =
  let m = Machine.create (Machine.ideal_config ~banks:4) in
  let plan = plan_exn ~vector_len:512 ~rows:1 () in
  let w = Array.init 512 (fun i -> if i mod 2 = 0 then 32 else -32) in
  let x = Array.init 512 (fun _ -> 64) in
  Machine.load_weights m ~group:0 ~base:0 ~plan [| w |];
  Machine.load_x m ~group:0 ~xreg_base:0 ~plan x;
  let task = dot_task ~multi_bank:plan.Layout.multi_bank () in
  let launch =
    {
      Machine.task;
      bank_group = 0;
      active_lanes = plan.Layout.lanes_per_bank;
      adc_gain = 16.0;
      th = simple_th ~gain:(float_of_int plan.Layout.lanes_per_bank) ();
      dest_xreg = 7;
    }
  in
  let r = Machine.For_tests.execute_exn m launch in
  (* sum w*x = 0 by symmetry *)
  (match r.Machine.emitted with
  | [ v ] -> check (close 0.05) "zero dot" 0.0 v
  | _ -> fail "one emitted value expected");
  check int "crossbank transfers" 3 r.Machine.record.Trace.crossbank_transfers

let test_machine_trace_accumulates () =
  let m = Machine.create (Machine.ideal_config ~banks:1) in
  let plan = plan_exn ~vector_len:16 ~rows:4 () in
  let w =
    Array.init 4 (fun r -> Array.init 16 (fun c -> ((r + c) mod 100) - 50))
  in
  Machine.load_weights m ~group:0 ~base:0 ~plan w;
  Machine.load_x m ~group:0 ~xreg_base:0 ~plan (Array.make 16 64);
  let task = dot_task ~rpt_num:3 () in
  let launch =
    {
      Machine.task;
      bank_group = 0;
      active_lanes = 16;
      adc_gain = 1.0;
      th = simple_th ~gain:16.0 ();
      dest_xreg = 7;
    }
  in
  let r = Machine.For_tests.execute_exn m launch in
  check int "4 emissions" 4 (List.length r.Machine.emitted);
  check int "adc conversions" 4 r.Machine.record.Trace.adc_conversions;
  check int "trace cycles" (Timing.task_cycles task)
    (Trace.total_cycles (Machine.trace m));
  Machine.reset_trace m;
  check int "trace reset" 0 (Trace.total_cycles (Machine.trace m))

let test_machine_argmin_decision () =
  let m = Machine.create (Machine.ideal_config ~banks:1) in
  let plan = plan_exn ~vector_len:8 ~rows:3 () in
  (* candidate 1 matches x exactly *)
  let x = Array.init 8 (fun i -> (i * 10) - 40) in
  let far = Array.map (fun c -> -c) x in
  Machine.load_weights m ~group:0 ~base:0 ~plan
    [| far; Array.copy x; Array.map (fun c -> c + 20) x |];
  Machine.load_x m ~group:0 ~xreg_base:0 ~plan x;
  let task = l1_task ~rpt_num:2 ~class4:Opcode.C4_min () in
  let launch =
    {
      Machine.task;
      bank_group = 0;
      active_lanes = 8;
      adc_gain = 1.0;
      th = simple_th ~op:Opcode.C4_min ~gain:16.0 ();
      dest_xreg = 7;
    }
  in
  let r = Machine.For_tests.execute_exn m launch in
  match r.Machine.argext with
  | Some (i, _) -> check int "argmin is the exact match" 1 i
  | None -> fail "decision expected"

let test_machine_group_bounds () =
  let m = Machine.create (Machine.ideal_config ~banks:2) in
  let task = dot_task ~multi_bank:2 () in
  let launch =
    {
      Machine.task;
      bank_group = 0;
      active_lanes = 1;
      adc_gain = 1.0;
      th = simple_th ~gain:1.0 ();
      dest_xreg = 7;
    }
  in
  match Machine.execute m launch with
  | Error e -> check bool "capacity error" true (e.Promise_core.Error.code = Promise_core.Error.Capacity)
  | Ok _ -> fail "4-bank task on a 2-bank machine must be rejected"

let test_machine_determinism () =
  let run () =
    let m =
      Machine.create
        { Machine.banks = 1; profile = Bank.Silicon; noise_seed = Some 9 }
    in
    let plan = plan_exn ~vector_len:32 ~rows:1 () in
    let w = Array.init 32 (fun i -> (i * 3) - 48) in
    Machine.load_weights m ~group:0 ~base:0 ~plan [| w |];
    Machine.load_x m ~group:0 ~xreg_base:0 ~plan (Array.make 32 50);
    let launch =
      {
        Machine.task = dot_task ();
        bank_group = 0;
        active_lanes = 32;
        adc_gain = 4.0;
        th = simple_th ~gain:32.0 ();
        dest_xreg = 7;
      }
    in
    (Machine.For_tests.execute_exn m launch).Machine.emitted
  in
  check bool "same seed, same result" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* CTRL signal generation                                              *)
(* ------------------------------------------------------------------ *)

let find_step steps signal =
  List.find_opt (fun s -> Ctrl.For_tests.equal_signal s.Ctrl.signal signal) steps

let test_ctrl_l1_schedule () =
  let task = l1_task ~class4:Opcode.C4_min () in
  let steps = Ctrl.iteration_schedule task in
  (* precharge first, one cycle *)
  (match find_step steps Ctrl.Precharge with
  | Some s ->
      check int "precharge at 0" 0 s.Ctrl.cycle;
      check int "one cycle" 1 s.Ctrl.duration
  | None -> fail "precharge expected");
  (* PWM burst fills the rest of the aSUBT slot, with X driven *)
  (match find_step steps (Ctrl.Wl_pwm { bits = 8 }) with
  | Some s ->
      check int "wl after precharge" 1 s.Ctrl.cycle;
      check int "wl duration" (Timing.class1_delay Opcode.C1_asubt - 1)
        s.Ctrl.duration
  | None -> fail "wl pwm expected");
  check bool "x driven for the fused op" true
    (find_step steps Ctrl.X_drive <> None);
  (* aSD after class-1; charge share in its last cycle; ADC next *)
  (match find_step steps (Ctrl.Sd_enable Opcode.Asd_absolute) with
  | Some s -> check int "sd after class1" 7 s.Ctrl.cycle
  | None -> fail "sd expected");
  (match find_step steps Ctrl.Avd_share with
  | Some s -> check int "share in last sd cycle" 12 s.Ctrl.cycle
  | None -> fail "share expected");
  (match find_step steps Ctrl.Adc_start with
  | Some s -> check int "adc after sd" 13 s.Ctrl.cycle
  | None -> fail "adc expected");
  (* TH fires after the ADC latency; the schedule spans the fill time *)
  (match find_step steps (Ctrl.Th_strobe Opcode.C4_min) with
  | Some s -> check int "th after adc" (13 + 138) s.Ctrl.cycle
  | None -> fail "th expected");
  check int "schedule spans the fill" (Timing.fill_cycles task)
    (Ctrl.last_cycle steps)

let test_ctrl_digital_ops () =
  let read_task =
    Task.make ~class1:Opcode.C1_read
      ~class2:{ Opcode.asd = Opcode.Asd_none; avd = false }
      ~class3:Opcode.C3_none ~class4:Opcode.C4_accumulate ()
  in
  let steps = Ctrl.iteration_schedule read_task in
  (* digital read: the read path plus the (idle) TH pipeline slot *)
  check bool "read enable present" true
    (find_step steps Ctrl.Read_enable <> None);
  check bool "no analog signals" true
    (find_step steps Ctrl.Precharge = None
    && find_step steps (Ctrl.Wl_pwm { bits = 8 }) = None
    && find_step steps Ctrl.Adc_start = None)

let test_ctrl_signal_counts () =
  let task = dot_task ~rpt_num:9 () in
  let counts = Ctrl.For_tests.signal_counts task in
  List.iter
    (fun (_, n) -> check int "every signal fires per iteration" 10 n)
    counts;
  check bool "adc counted" true
    (List.exists (fun (sg, _) -> Ctrl.For_tests.equal_signal sg Ctrl.Adc_start) counts)

let test_ctrl_ordering_property () =
  (* for every legal analog composition: precharge < WL < SD < ADC < TH *)
  List.iter
    (fun (class1, class2, class3, class4) ->
      let task = { Task.nop with Task.class1; class2; class3; class4 } in
      match Task.validate task with
      | Error _ -> ()
      | Ok task ->
          let steps = Ctrl.iteration_schedule task in
          let cycle_of signal =
            Option.map (fun s -> s.Ctrl.cycle) (find_step steps signal)
          in
          let ordered a b =
            match (a, b) with
            | Some x, Some y -> x <= y
            | _ -> true
          in
          check bool "precharge before wl" true
            (ordered (cycle_of Ctrl.Precharge)
               (cycle_of (Ctrl.Wl_pwm { bits = 8 })));
          check bool "wl before adc" true
            (ordered
               (cycle_of (Ctrl.Wl_pwm { bits = 8 }))
               (cycle_of Ctrl.Adc_start));
          check bool "adc before th" true
            (ordered (cycle_of Ctrl.Adc_start)
               (cycle_of (Ctrl.Th_strobe task.Task.class4))))
    (Task.legal_compositions ())

let test_machine_writeback_path () =
  (* DES = 11: Class-4 results land in the write data buffer; a
     following Class-1 write Task stores them, and a digital read gets
     them back (the full Fig. 5(b) destination loop). *)
  let m = Machine.create (Machine.ideal_config ~banks:1) in
  let plan = plan_exn ~vector_len:4 ~rows:3 () in
  let w =
    [| [| 32; 32; 32; 32 |]; [| 64; 64; 64; 64 |]; [| 96; 96; 96; 96 |] |]
  in
  Machine.load_weights m ~group:0 ~base:0 ~plan w;
  Machine.load_x m ~group:0 ~xreg_base:0 ~plan [| 127; 127; 127; 127 |];
  let compute =
    {
      Machine.task = dot_task ~rpt_num:2 ();
      bank_group = 0;
      active_lanes = 4;
      adc_gain = 1.0;
      th =
        {
          Th_unit.op = Opcode.C4_mean;
          acc_num = 0;
          threshold = 0.0;
          (* gain chosen so means land on representable codes *)
          gain = 1.0;
          des = Opcode.Des_write_buffer;
        };
      dest_xreg = 7;
    }
  in
  let r = Machine.For_tests.execute_exn m compute in
  check int "three codes staged" 3 (List.length r.Machine.write_buffer);
  let write_task =
    Task.make
      ~op_param:{ Op_param.default with Op_param.w_addr = 50 }
      ~class1:Opcode.C1_write
      ~class2:{ Opcode.asd = Opcode.Asd_none; avd = false }
      ~class3:Opcode.C3_none ~class4:Opcode.C4_accumulate ()
  in
  let wlaunch =
    { compute with Machine.task = write_task }
  in
  ignore (Machine.For_tests.execute_exn m wlaunch);
  let stored = Bitcell_array.read (Bank.array (Machine.bank m 0)) ~word_row:50 in
  List.iteri
    (fun i code -> check int "stored = staged" code stored.(i))
    r.Machine.write_buffer

let test_crossbank () =
  check (close 1e-9) "combine sums" 6.0 (Crossbank.combine [| 1.0; 2.0; 3.0 |]);
  check int "transfers" 7 (Crossbank.transfers_per_iteration ~banks:8);
  check int "single bank no transfer" 0
    (Crossbank.transfers_per_iteration ~banks:1)

let test_machine_raw_program_run () =
  (* assembler-driven path: parse asm, run with default launches *)
  let src =
    "task c1=aSUBT c2=absolute.avd c3=ADC c4=min rpt=2 swing=7\n"
  in
  let program =
    match Program.of_asm ~name:"raw" src with
    | Ok p -> p
    | Error msg -> fail msg
  in
  let m = Machine.create (Machine.ideal_config ~banks:1) in
  let plan = plan_exn ~vector_len:128 ~rows:3 () in
  let x = Array.init 128 (fun i -> (i mod 100) - 50) in
  let rows =
    [| Array.map (fun c -> -c) x; Array.copy x; Array.map (fun c -> min 127 (c + 30)) x |]
  in
  Machine.load_weights m ~group:0 ~base:0 ~plan rows;
  Machine.load_x m ~group:0 ~xreg_base:0 ~plan x;
  (match Machine.run_program m program with
  | Ok [ r ] -> (
      match r.Machine.argext with
      | Some (i, _) -> check int "raw argmin finds the match" 1 i
      | None -> fail "decision expected")
  | Ok _ -> fail "one result expected"
  | Error e -> fail (Promise_core.Error.to_string e))

let test_layout_capacity_boundaries () =
  (* exactly 8 banks x 128 lanes fits in one segment *)
  let p = plan_exn ~vector_len:1024 ~rows:1 () in
  check int "1024 fits one segment" 1 p.Layout.segments;
  check int "8 banks" 8 p.Layout.banks;
  (* one more element forces a second segment *)
  let p = plan_exn ~vector_len:1025 ~rows:1 () in
  check int "1025 needs two segments" 2 p.Layout.segments;
  (* the absolute maximum *)
  let p = plan_exn ~vector_len:4096 ~rows:1 () in
  check int "4096 = 4 segments" 4 p.Layout.segments

let test_default_launch_threshold_mapping () =
  let task =
    Task.make
      ~op_param:{ Op_param.default with Op_param.thres_val = 8 }
      ~class1:Opcode.C1_aread
      ~class2:{ Opcode.asd = Opcode.Asd_sign_mult; avd = true }
      ~class3:Opcode.C3_adc ~class4:Opcode.C4_threshold ()
  in
  let launch = Machine.default_launch task in
  (* code 8 is the near-midpoint of the 16-level field: 8/7.5 - 1 *)
  check (close 1e-6) "threshold decode" ((8.0 /. 7.5) -. 1.0)
    launch.Machine.th.Th_unit.threshold;
  check int "all lanes" Params.lanes launch.Machine.active_lanes

let test_trace_csv () =
  let m = Machine.create (Machine.ideal_config ~banks:1) in
  let plan = plan_exn ~vector_len:8 ~rows:2 () in
  Machine.load_weights m ~group:0 ~base:0 ~plan
    [| Array.make 8 10; Array.make 8 20 |];
  Machine.load_x m ~group:0 ~xreg_base:0 ~plan (Array.make 8 30);
  ignore
    (Machine.run_program m
       (Program.make ~name:"csv" [ dot_task ~rpt_num:1 () ]));
  let csv = Trace.to_csv (Machine.trace m) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check int "header + one record" 2 (List.length lines);
  check bool "record mentions aREAD" true
    (match lines with
    | [ _; record ] -> String.length record > 0 && String.sub record 0 5 = "aREAD"
    | _ -> false)

let suite =
  [
    ("table 3 delays", `Quick, test_table3_delays);
    ("TP = max of used stages", `Quick, test_tp_is_max_of_used_stages);
    ("worst-case TP (§3.2 ablation)", `Quick, test_worst_case_tp);
    ("task cycles", `Quick, test_task_cycles);
    ("k-NN decision rate (§6.2)", `Quick, test_knn_decision_rate);
    ("throughput formula", `Quick, test_throughput_formula);
    ("CM unpipelined latency", `Quick, test_unpipelined_cm_latency);
    ("bitcell write/read", `Quick, test_bitcell_write_read);
    ("bitcell zero padding", `Quick, test_bitcell_partial_write_zero_pads);
    ("bitcell bad inputs", `Quick, test_bitcell_bad_inputs);
    ("bitcell msb/lsb sub-ranging", `Quick, test_bitcell_msb_lsb_view);
    ("bitcell ideal aread", `Quick, test_bitcell_aread_ideal);
    ("bitcell quantize", `Quick, test_bitcell_quantize);
    ("bitcell write epoch", `Quick, test_bitcell_epoch);
    ("xreg load/get", `Quick, test_xreg_load_get);
    ("xreg staging", `Quick, test_xreg_staging);
    ("xreg staging wraps", `Quick, test_xreg_staging_wraps);
    ("xreg bounds", `Quick, test_xreg_bounds);
    ("th accumulate groups", `Quick, test_th_accumulate_groups);
    ("th mean", `Quick, test_th_mean);
    ("th threshold", `Quick, test_th_threshold);
    ("th min/argmin", `Quick, test_th_min_argmin);
    ("th max", `Quick, test_th_max);
    ("th sigmoid/relu", `Quick, test_th_sigmoid_relu);
    ("th partial group flush", `Quick, test_th_partial_group_flush);
    ("pwl sigmoid accuracy", `Quick, test_pwl_sigmoid_accuracy);
    ("pwl sigmoid seam continuity", `Quick, test_pwl_sigmoid_continuous_at_seams);
    ("bank analog scale", `Quick, test_bank_analog_scale);
    ("bank dot iteration", `Quick, test_bank_dot_iteration);
    ("bank L1 iteration", `Quick, test_bank_l1_iteration);
    ("bank W address increments", `Quick, test_bank_w_addr_increments);
    ("bank digital read", `Quick, test_bank_digital_read);
    ("bank write", `Quick, test_bank_write);
    ("bank ADC gain", `Quick, test_bank_adc_gain_reduces_quantization);
    ("layout small vector", `Quick, test_layout_small_vector);
    ("layout multibank (§3.4)", `Quick, test_layout_multibank);
    ("layout segments", `Quick, test_layout_segments);
    ("layout row chunking", `Quick, test_layout_row_chunking);
    ("layout uneven chunk", `Quick, test_layout_uneven_chunk);
    ("layout too large", `Quick, test_layout_too_large);
    ("layout slices cover vector", `Quick, test_layout_slices_cover_vector);
    ("machine multibank dot", `Quick, test_machine_multibank_dot);
    ("machine trace accumulates", `Quick, test_machine_trace_accumulates);
    ("machine argmin decision", `Quick, test_machine_argmin_decision);
    ("machine group bounds", `Quick, test_machine_group_bounds);
    ("machine determinism", `Quick, test_machine_determinism);
    ("ctrl L1 schedule", `Quick, test_ctrl_l1_schedule);
    ("ctrl digital ops", `Quick, test_ctrl_digital_ops);
    ("ctrl signal counts", `Quick, test_ctrl_signal_counts);
    ("ctrl ordering property", `Quick, test_ctrl_ordering_property);
    ("machine write-back path (DES=11)", `Quick, test_machine_writeback_path);
    ("machine raw asm program run", `Quick, test_machine_raw_program_run);
    ("trace csv export", `Quick, test_trace_csv);
    ("layout capacity boundaries", `Quick, test_layout_capacity_boundaries);
    ("default launch threshold mapping", `Quick, test_default_launch_threshold_mapping);
    ("crossbank rail", `Quick, test_crossbank);
    QCheck_alcotest.to_alcotest qcheck_pwl_sigmoid_monotone;
    QCheck_alcotest.to_alcotest qcheck_layout_invariants;
  ]

let () = Alcotest.run "promise-arch" [ ("arch", suite) ]
