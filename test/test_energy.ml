(* Energy / throughput model tests: Table 3 energies, Eq. (6), the
   CONV-8b/CONV-OPT baselines (Eq. 5), the CM baseline, process scaling
   and state-of-the-art comparisons. *)

open Promise.Energy
open Promise.Isa
module Arch = Promise.Arch

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let close eps = Alcotest.float eps

let dot_task ?(rpt_num = 0) ?(multi_bank = 0) ?(swing = 7) () =
  Task.make
    ~op_param:{ Op_param.default with Op_param.swing }
    ~rpt_num ~multi_bank ~class1:Opcode.C1_aread
    ~class2:{ Opcode.asd = Opcode.Asd_sign_mult; avd = true }
    ~class3:Opcode.C3_adc ~class4:Opcode.C4_accumulate ()

let l1_task ?(rpt_num = 0) ?(swing = 7) () =
  Task.make
    ~op_param:{ Op_param.default with Op_param.swing }
    ~rpt_num ~class1:Opcode.C1_asubt
    ~class2:{ Opcode.asd = Opcode.Asd_absolute; avd = true }
    ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ()

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let test_table3_energies () =
  check (close 1e-9) "aREAD 61" 61.0 (Tables.class1_energy_pj Opcode.C1_aread);
  check (close 1e-9) "aSUBT 103" 103.0
    (Tables.class1_energy_pj Opcode.C1_asubt);
  check (close 1e-9) "write 73" 73.0 (Tables.class1_energy_pj Opcode.C1_write);
  check (close 1e-9) "read 33" 33.0 (Tables.class1_energy_pj Opcode.C1_read);
  check (close 1e-9) "square 38" 38.0
    (Tables.class2_energy_pj { Opcode.asd = Opcode.Asd_square; avd = true });
  check (close 1e-9) "mult 16" 16.0
    (Tables.class2_energy_pj { Opcode.asd = Opcode.Asd_sign_mult; avd = true });
  check (close 1e-9) "ADC 6" 6.0 (Tables.class3_energy_pj Opcode.C3_adc);
  check (close 1e-9) "leak 0.6" 0.6 Tables.leakage_pj_per_cycle_per_bank;
  check (close 1e-9) "ctrl 5.4" 5.4 Tables.ctrl_pj_per_cycle;
  check (close 1e-9) "rail 0.5" 0.5 Tables.crossbank_transfer_pj

let test_table3_rows () =
  let rows = Tables.table3 () in
  (* 5 class-1 + 5 class-2 + 1 ADC + 7 class-4 *)
  check int "18 rows" 18 (List.length rows);
  match List.find_opt (fun (_, n, _, _) -> n = "aREAD") rows with
  | Some (cls, _, delay, energy) ->
      check int "class" 1 cls;
      check int "delay" 5 delay;
      check (close 1e-9) "energy" 61.0 energy
  | None -> fail "aREAD row missing"

let test_swing_scaled_class1 () =
  let full = Tables.class1_energy_at_swing Opcode.C1_aread ~swing:7 in
  let low = Tables.class1_energy_at_swing Opcode.C1_aread ~swing:0 in
  check (close 1e-9) "max swing full energy" 61.0 full;
  (* half fixed + half * 5/30 *)
  check (close 1e-6) "min swing" (61.0 *. (0.5 +. (0.5 /. 6.0))) low;
  (* digital ops are swing-independent *)
  check (close 1e-9) "digital read unaffected" 33.0
    (Tables.class1_energy_at_swing Opcode.C1_read ~swing:0)

(* ------------------------------------------------------------------ *)
(* Eq. (6) model                                                       *)
(* ------------------------------------------------------------------ *)

let test_breakdown_arithmetic () =
  let a = { Model.read = 1.0; compute = 2.0; leak = 3.0; ctrl = 4.0 } in
  check (close 1e-9) "total" 10.0 (Model.total a);
  let s = Model.add a (Model.scale 2.0 a) in
  check (close 1e-9) "add+scale" 30.0 (Model.total s);
  check (close 1e-9) "zero" 0.0 (Model.total Model.zero)

let test_task_energy_hand_calc () =
  (* k-NN L1 per decision: 128 iterations, 1 bank, TP = 7.
     read = 128 * 103; compute = 128*12 + 128*6 + 128*0.05;
     cycles = 155 + 127*7 = 1044; leak = 0.6*1044; ctrl = 5.4*1044 *)
  let t = l1_task ~rpt_num:127 () in
  let e = Model.task_energy t in
  check (close 1e-6) "read" (128.0 *. 103.0) e.Model.read;
  check (close 1e-6) "compute"
    ((128.0 *. 12.0) +. (128.0 *. 6.0) +. (128.0 *. 0.05))
    e.Model.compute;
  let cycles = float_of_int (Arch.Timing.task_cycles t) in
  check (close 1e-6) "leak" (0.6 *. cycles) e.Model.leak;
  check (close 1e-6) "ctrl" (5.4 *. cycles) e.Model.ctrl;
  (* the paper reports 18 nJ/decision for this configuration; the model
     must land in the same ballpark (within 40%) *)
  let nj = Model.total e /. 1000.0 in
  check bool "~18 nJ/decision" true (nj > 12.0 && nj < 26.0)

let test_energy_scales_with_banks () =
  let one = Model.total (Model.task_energy (dot_task ~rpt_num:63 ())) in
  let four =
    Model.total (Model.task_energy (dot_task ~rpt_num:63 ~multi_bank:2 ()))
  in
  check bool "4 banks cost more" true (four > 2.0 *. one);
  check bool "but CTRL is shared" true (four < 4.0 *. one)

let test_energy_swing_monotone () =
  let at s = Model.total (Model.task_energy (l1_task ~rpt_num:63 ~swing:s ())) in
  for s = 0 to 6 do
    check bool "monotone in swing" true (at s < at (s + 1))
  done

let test_trace_energy_matches_analytic () =
  (* run a task on the machine and compare the trace-based energy with
     the analytic per-task energy *)
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:1) in
  let plan = Arch.Layout.plan_exn ~vector_len:16 ~rows:8 () in
  let w = Array.init 8 (fun r -> Array.init 16 (fun c -> ((r * c) mod 80) - 40)) in
  Arch.Machine.load_weights m ~group:0 ~base:0 ~plan w;
  Arch.Machine.load_x m ~group:0 ~xreg_base:0 ~plan (Array.make 16 32);
  let task = dot_task ~rpt_num:7 () in
  let launch =
    {
      Arch.Machine.task;
      bank_group = 0;
      active_lanes = 16;
      adc_gain = 1.0;
      th =
        {
          Arch.Th_unit.op = Opcode.C4_accumulate;
          acc_num = 0;
          threshold = 0.0;
          gain = 16.0;
          des = Opcode.Des_output_buffer;
        };
      dest_xreg = 7;
    }
  in
  ignore (Arch.Machine.execute m launch);
  let from_trace = Model.trace_energy (Arch.Machine.trace m) in
  let analytic = Model.task_energy task in
  check (close 1e-6) "trace = analytic" (Model.total analytic)
    (Model.total from_trace)

let test_program_cycles_and_ops () =
  let p = Program.make ~name:"p" [ dot_task ~rpt_num:9 (); l1_task ~rpt_num:4 () ] in
  check int "cycles"
    (Arch.Timing.task_cycles (dot_task ~rpt_num:9 ())
    + Arch.Timing.task_cycles (l1_task ~rpt_num:4 ()))
    (Model.program_cycles p);
  check int "element ops" ((10 + 5) * 128) (Model.element_ops p);
  check bool "worst-case TP costs more" true
    (Model.program_cycles_at_worst_case_tp p > Model.program_cycles p)

let test_edp () =
  let e = { Model.read = 10.0; compute = 0.0; leak = 0.0; ctrl = 0.0 } in
  check (close 1e-9) "edp" 100.0 (Model.energy_delay_product e ~cycles:10)

(* ------------------------------------------------------------------ *)
(* CONV baselines                                                      *)
(* ------------------------------------------------------------------ *)

let workload =
  { Conv.macs = 1024; fetch_words = 1024; banks = 1 }

let test_conv_eq5 () =
  (* f_CONV = (NCOL/L)/B / T_SRAM = 8 words / 2 ns at 8 bits *)
  check int "8 words per access" 8 (Conv.words_per_access ~precision:8);
  check int "16 words at 4 bits" 16 (Conv.words_per_access ~precision:4);
  check (close 1e-9) "4 MACs/ns" 4.0
    (Conv.throughput_macs_per_ns Conv.Conv_8b workload);
  check (close 1e-9) "8 MACs/ns at 4 bits" 8.0
    (Conv.throughput_macs_per_ns (Conv.Conv_opt 4) workload)

let test_conv_delay () =
  (* 1024 words / 8 per access * 2 ns *)
  check (close 1e-9) "delay" 256.0 (Conv.delay_ns Conv.Conv_8b workload);
  let w4 = { workload with Conv.banks = 4 } in
  check (close 1e-9) "banks divide delay" 64.0 (Conv.delay_ns Conv.Conv_8b w4)

let test_conv_energy_components () =
  let e = Conv.energy Conv.Conv_8b workload in
  (* 128 accesses x 33 pJ *)
  check (close 1e-6) "read" (128.0 *. 33.0) e.Model.read;
  check (close 1e-6) "compute" (1024.0 *. 0.9) e.Model.compute;
  check bool "ctrl > 0" true (e.Model.ctrl > 0.0)

let test_conv_opt_cheaper () =
  let e8 = Model.total (Conv.energy Conv.Conv_8b workload) in
  let e4 = Model.total (Conv.energy (Conv.Conv_opt 4) workload) in
  check bool "lower precision, lower energy" true (e4 < e8)

let test_conv_bad_precision () =
  match Conv.precision (Conv.Conv_opt 1) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "precision 1 must be rejected"

let test_promise_beats_conv_energy () =
  (* the headline claim: 3.4-5.5x energy advantage at same work.
     Compare a 128-dim 128-row dot-product kernel. *)
  let t = dot_task ~rpt_num:127 () in
  let promise = Model.total (Model.task_energy t) in
  let conv =
    Model.total
      (Conv.energy Conv.Conv_8b
         { Conv.macs = 128 * 128; fetch_words = 128 * 128; banks = 1 })
  in
  let ratio = conv /. promise in
  check bool "energy ratio in the paper band" true (ratio > 2.5 && ratio < 8.0)

(* ------------------------------------------------------------------ *)
(* CM baseline                                                         *)
(* ------------------------------------------------------------------ *)

let test_cm_slower () =
  let p = Program.make ~name:"knn" [ l1_task ~rpt_num:127 () ] in
  let speedup = Cm.speedup_vs_cm p in
  check bool "PROMISE faster than CM" true (speedup > 1.2);
  check bool "up to ~1.9x" true (speedup < 2.2)

let test_cm_energy_saving () =
  let p = Program.make ~name:"knn" [ l1_task ~rpt_num:127 () ] in
  let saving = Cm.energy_saving_vs_cm p in
  (* paper: ~5.5% net saving from earlier sleep *)
  check bool "PROMISE saves energy vs CM" true (saving > 0.0 && saving < 0.2)

let test_cm_cycles () =
  let t = l1_task ~rpt_num:0 () in
  check int "one iteration = S1+S2 + ADC fill" (138 + 13) (Cm.task_cycles t)

(* ------------------------------------------------------------------ *)
(* Process scaling / state-of-the-art                                  *)
(* ------------------------------------------------------------------ *)

let test_scaling_factors () =
  let e =
    Scaling.energy_scale ~from_:Scaling.n14_finfet ~to_:Scaling.n65_planar
  in
  (* ~22x: (65/14) * (1.2/0.8)^2 * 2.1 *)
  check (close 0.5) "energy scale ~21.9" 21.9 e;
  let d =
    Scaling.delay_scale ~from_:Scaling.n14_finfet ~to_:Scaling.n65_planar
  in
  check (close 0.1) "delay scale ~7" 6.96 d;
  check (close 1e-9) "self scale" 1.0
    (Scaling.energy_scale ~from_:Scaling.n65_planar ~to_:Scaling.n65_planar)

let test_soa_knn_comparison () =
  (* ours at the paper's own numbers: 18 nJ, 1.12 M/s -> the scaled
     ratios of §6.2 (4.1x energy, 3.1x lower throughput, 1.3x EDP) *)
  let c =
    Soa.compare Soa.knn_l1_14nm ~ours_energy_j:18e-9
      ~ours_decisions_per_s:1.12e6
  in
  check (close 0.6) "energy ratio ~4.1" 4.1 c.Soa.energy_ratio;
  check (close 0.1) "throughput ratio ~1/3.1" (1.0 /. 3.1)
    c.Soa.throughput_ratio;
  check bool "EDP advantage ~1.3x" true
    (c.Soa.edp_ratio > 1.0 && c.Soa.edp_ratio < 1.8)

let test_soa_dnn_comparison () =
  (* raw (unscaled) comparison, as in the paper *)
  let c =
    Soa.compare ~scale_to_65nm:false Soa.dnn_28nm ~ours_energy_j:0.49e-6
      ~ours_decisions_per_s:558e3
  in
  check (close 0.05) "energy ratio ~1.16" 1.163 c.Soa.energy_ratio;
  check (close 0.2) "throughput ratio ~19.9" 19.93 c.Soa.throughput_ratio;
  check bool "EDP ~22x" true (c.Soa.edp_ratio > 20.0 && c.Soa.edp_ratio < 25.0)

let test_soa_published_values () =
  check (close 1e-12) "[7] L1 energy" 3.37e-9
    Soa.knn_l1_14nm.Soa.energy_per_decision_j;
  check (close 1e-12) "[7] L2 energy" 3.84e-9
    Soa.knn_l2_14nm.Soa.energy_per_decision_j;
  check (close 1e-9) "[6] energy" 0.57e-6
    Soa.dnn_28nm.Soa.energy_per_decision_j

let qcheck_energy_nonnegative =
  QCheck.Test.make ~name:"task energy components nonnegative" ~count:200
    (QCheck.pair (QCheck.int_range 0 127) (QCheck.int_range 0 3))
    (fun (rpt_num, multi_bank) ->
      let e = Model.task_energy (dot_task ~rpt_num ~multi_bank ()) in
      e.Model.read >= 0.0 && e.Model.compute >= 0.0 && e.Model.leak >= 0.0
      && e.Model.ctrl >= 0.0)

let qcheck_conv_energy_monotone_in_macs =
  QCheck.Test.make ~name:"conv energy monotone in work" ~count:200
    (QCheck.pair (QCheck.int_range 1 100000) (QCheck.int_range 1 100000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let w m = { Conv.macs = m; fetch_words = m; banks = 1 } in
      Model.total (Conv.energy Conv.Conv_8b (w lo))
      <= Model.total (Conv.energy Conv.Conv_8b (w hi)) +. 1e-9)

let suite =
  [
    ("table 3 energies", `Quick, test_table3_energies);
    ("table 3 rows", `Quick, test_table3_rows);
    ("swing-scaled class-1 energy", `Quick, test_swing_scaled_class1);
    ("breakdown arithmetic", `Quick, test_breakdown_arithmetic);
    ("task energy hand calc (k-NN)", `Quick, test_task_energy_hand_calc);
    ("energy scales with banks", `Quick, test_energy_scales_with_banks);
    ("energy monotone in swing", `Quick, test_energy_swing_monotone);
    ("trace energy = analytic", `Quick, test_trace_energy_matches_analytic);
    ("program cycles and ops", `Quick, test_program_cycles_and_ops);
    ("energy-delay product", `Quick, test_edp);
    ("CONV Eq. (5)", `Quick, test_conv_eq5);
    ("CONV delay", `Quick, test_conv_delay);
    ("CONV energy components", `Quick, test_conv_energy_components);
    ("CONV-OPT cheaper", `Quick, test_conv_opt_cheaper);
    ("CONV bad precision", `Quick, test_conv_bad_precision);
    ("PROMISE beats CONV on energy", `Quick, test_promise_beats_conv_energy);
    ("CM is slower", `Quick, test_cm_slower);
    ("CM energy saving", `Quick, test_cm_energy_saving);
    ("CM cycles", `Quick, test_cm_cycles);
    ("process scaling factors", `Quick, test_scaling_factors);
    ("§6.2 k-NN comparison", `Quick, test_soa_knn_comparison);
    ("§6.2 DNN comparison", `Quick, test_soa_dnn_comparison);
    ("published SoA values", `Quick, test_soa_published_values);
    QCheck_alcotest.to_alcotest qcheck_energy_nonnegative;
    QCheck_alcotest.to_alcotest qcheck_conv_energy_monotone_in_macs;
  ]

let () = Alcotest.run "promise-energy" [ ("energy", suite) ]
