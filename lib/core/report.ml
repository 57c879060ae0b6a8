module B = Benchmarks
module Model = Promise_energy.Model
module Conv = Promise_energy.Conv
module Cm = Promise_energy.Cm
module Soa = Promise_energy.Soa
module Swing = Promise_analog.Swing
module Swing_opt = Promise_compiler.Swing_opt
module Timing = Promise_arch.Timing
module Program = Promise_isa.Program
module Task = Promise_isa.Task
module At = Promise_ir.Abstract_task
module Graph = Promise_ir.Graph
module E = Promise_core.Error

let section ppf title note =
  Format.fprintf ppf "@.== %s ==@." title;
  if note <> "" then Format.fprintf ppf "   %s@." note

let hr ppf = Format.fprintf ppf "   %s@." (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* Memoized expensive state                                            *)
(* ------------------------------------------------------------------ *)

type opt_result = {
  bench : B.t;
  swings : int list;
  eval : B.eval;
  full_energy : float;
  opt_energy : float;
}

(* Memoized on first call and shared by fig12 and table2; the lock
   keeps two sections rendering on different domains from racing the
   cache. *)
let optimizations_lock = Mutex.create ()
let optimizations_cache : opt_result list option ref = ref None

let optimizations () =
  Mutex.protect optimizations_lock (fun () ->
      match !optimizations_cache with
      | Some v -> v
      | None ->
          let v =
            List.filter_map
              (fun (b : B.t) ->
                match B.optimize b ~pm:0.01 with
                | Ok (swings, eval) ->
                    Some
                      {
                        bench = b;
                        swings;
                        eval;
                        full_energy =
                          Model.total
                            (B.promise_energy b ~swings:(B.max_swings b));
                        opt_energy = Model.total (B.promise_energy b ~swings);
                      }
                | Error _ -> None)
              (B.fig12_suite ())
          in
          optimizations_cache := Some v;
          v)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 ppf =
  section ppf "Table 1 - ML algorithm kernels"
    "inner-loop distance D(W,X) and decision function f()";
  let rows =
    [
      ("SVM", "sum w[i]x[i]", "sign");
      ("Temp. Match. (L1)", "sum |w[i]-x[i]|", "min");
      ("Temp. Match. (L2)", "sum (w[i]-x[i])^2", "min");
      ("DNN", "sum w[i]x[i]", "sigmoid");
      ("Feature extraction (PCA)", "sum w[i]x[i]", "-");
      ("k-NN (L1)", "sum |w[i]-x[i]|", "majority vote");
      ("k-NN (L2)", "sum (w[i]-x[i])^2", "majority vote");
      ("Matched filter", "sum w[i]x[i]", "threshold");
      ("Linear regression", "means of u, v, u^2, uv", "accumulate");
    ]
  in
  Format.fprintf ppf "   %-28s %-24s %s@." "algorithm" "kernel" "f()";
  hr ppf;
  List.iter
    (fun (a, k, f) -> Format.fprintf ppf "   %-28s %-24s %s@." a k f)
    rows

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 ppf =
  section ppf "Table 3 - energy and delay per operation"
    "1 cycle = 1 ns; energies per bank at SWING = 111 (the model is the \
     published table)";
  Format.fprintf ppf "   %-7s %-12s %10s %12s@." "class" "operation"
    "delay(cyc)" "energy(pJ)";
  hr ppf;
  List.iter
    (fun (cls, name, delay, energy) ->
      Format.fprintf ppf "   %-7d %-12s %10d %12.2f@." cls name delay energy)
    (Promise_energy.Tables.table3 ());
  Format.fprintf ppf "   %-20s %22.2f pJ/cycle@." "leakage (per bank)"
    Promise_energy.Tables.leakage_pj_per_cycle_per_bank;
  Format.fprintf ppf "   %-20s %22.2f pJ/cycle@." "CTRL"
    Promise_energy.Tables.ctrl_pj_per_cycle

(* ------------------------------------------------------------------ *)
(* Eq. (3)                                                             *)
(* ------------------------------------------------------------------ *)

let eq3_table ppf =
  section ppf "Eq. (3) - precision -> minimum swing"
    "2.6 f(SWING)/sqrt(N) < 2^-(B+1); '-' = infeasible even at max swing";
  Format.fprintf ppf "   swing codes:      ";
  List.iter (fun s -> Format.fprintf ppf "%8d" s) Swing.all_codes;
  Format.fprintf ppf "@.   deltaV (mV/LSB):  ";
  List.iter (fun s -> Format.fprintf ppf "%8.1f" (Swing.mv_per_lsb s)) Swing.all_codes;
  Format.fprintf ppf "@.   f(SWING):         ";
  List.iter (fun s -> Format.fprintf ppf "%8.3f" (Swing.noise_factor s)) Swing.all_codes;
  Format.fprintf ppf "@.";
  hr ppf;
  Format.fprintf ppf "   min swing by (B bits, N elements):@.";
  Format.fprintf ppf "   %6s" "B\\N";
  let ns = [ 128; 256; 512; 784; 1024 ] in
  List.iter (fun n -> Format.fprintf ppf "%8d" n) ns;
  Format.fprintf ppf "@.";
  List.iter
    (fun bits ->
      Format.fprintf ppf "   %6d" bits;
      List.iter
        (fun n ->
          match Swing_opt.min_swing_for ~bits ~n with
          | Some s -> Format.fprintf ppf "%8d" s
          | None -> Format.fprintf ppf "%8s" "-")
        ns;
      Format.fprintf ppf "@.")
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* ISA demo (Figure 5 / §3.4)                                          *)
(* ------------------------------------------------------------------ *)

let isa_demo ppf =
  section ppf "Figure 5 / §3.4 - the template-matching Task"
    "aSUBT + absolute.avd + ADC + min over 127 candidates on 4 banks";
  let task =
    Task.make ~rpt_num:126 ~multi_bank:2
      ~class1:Promise_isa.Opcode.C1_asubt
      ~class2:{ Promise_isa.Opcode.asd = Promise_isa.Opcode.Asd_absolute; avd = true }
      ~class3:Promise_isa.Opcode.C3_adc ~class4:Promise_isa.Opcode.C4_min ()
  in
  Format.fprintf ppf "   asm:    %s@." (Promise_isa.Asm.print_task task);
  Format.fprintf ppf "   binary: 0x%s (48 bits)@."
    (Promise_isa.Encode.hex_of_task task);
  Format.fprintf ppf "   TP = %d cycles, %d iterations, %d banks@."
    (Timing.task_tp task) (Task.iterations task) (Task.banks task)

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

(* Steady-state per-decision time/energy: the paper's throughput model
   (f = 128/TP) amortizes the pipeline fill across back-to-back
   decisions. *)
let promise_delay_ns (b : B.t) =
  float_of_int (Model.program_steady_cycles b.B.per_decision_program)

let promise_decision_energy (b : B.t) =
  Model.program_energy_steady b.B.per_decision_program

let fig10a ppf =
  section ppf "Figure 10(a) - speed-up PROMISE vs CONV"
    "paper: 1.4-3.4x vs CONV-OPT; Linear Reg. lowest (SRAM re-access)";
  Format.fprintf ppf "   %-16s %12s %12s %12s %10s %10s@." "benchmark"
    "PROMISE(ns)" "CONV8b(ns)" "CONVOPT(ns)" "vs 8b" "vs OPT";
  hr ppf;
  List.iter
    (fun (b : B.t) ->
      let p = promise_delay_ns b in
      let c8 = Conv.delay_ns Conv.Conv_8b b.B.conv_workload in
      let copt = Conv.delay_ns (Conv.Conv_opt b.B.conv_opt_bits) b.B.conv_workload in
      Format.fprintf ppf "   %-16s %12.0f %12.0f %12.0f %10.2f %10.2f@."
        b.B.short p c8 copt (c8 /. p) (copt /. p))
    (B.fig10_suite ())

let fig10b ppf =
  section ppf "Figure 10(b) - energy ratio CONV / PROMISE"
    "paper: 3.4-5.5x vs CONV-OPT, EDP improvement 4.7-12.6x";
  Format.fprintf ppf "   %-16s %12s %12s %12s %8s %8s %8s@." "benchmark"
    "PROMISE(pJ)" "CONV8b(pJ)" "CONVOPT(pJ)" "vs 8b" "vs OPT" "EDPxOPT";
  hr ppf;
  List.iter
    (fun (b : B.t) ->
      let pe = Model.total (promise_decision_energy b) in
      let pd = promise_delay_ns b in
      let e8 = Model.total (Conv.energy Conv.Conv_8b b.B.conv_workload) in
      let v = Conv.Conv_opt b.B.conv_opt_bits in
      let eo = Model.total (Conv.energy v b.B.conv_workload) in
      let edp_ratio = Conv.edp v b.B.conv_workload /. (pe *. pd) in
      Format.fprintf ppf "   %-16s %12.0f %12.0f %12.0f %8.2f %8.2f %8.2f@."
        b.B.short pe e8 eo (e8 /. pe) (eo /. pe) edp_ratio)
    (B.fig10_suite ())

(* ------------------------------------------------------------------ *)
(* Figure 11                                                           *)
(* ------------------------------------------------------------------ *)

let fig11 ppf =
  section ppf "Figure 11 - energy breakdown"
    "READ / COMPUTATION / CTRL(+leak); each pair normalized to its \
     CONV-8b total (workload sizes differ)";
  Format.fprintf ppf "   %-28s %8s %8s %8s %8s@." "design point" "READ" "COMP"
    "CTRL" "total";
  hr ppf;
  let print_row name norm (e : Model.breakdown) =
    Format.fprintf ppf "   %-28s %8.3f %8.3f %8.3f %8.3f@." name
      (e.Model.read /. norm)
      (e.Model.compute /. norm)
      ((e.Model.ctrl +. e.Model.leak) /. norm)
      (Model.total e /. norm)
  in
  List.iter
    (fun (b : B.t) ->
      let conv = Conv.energy Conv.Conv_8b b.B.conv_workload in
      let norm = Model.total conv in
      print_row (b.B.short ^ " CONV-8b") norm conv;
      print_row (b.B.short ^ " PROMISE") norm (promise_decision_energy b))
    [ B.svm (); B.template_l1 (); B.template_l2 () ]

(* ------------------------------------------------------------------ *)
(* Figure 12 / Table 2                                                 *)
(* ------------------------------------------------------------------ *)

let fig12 ppf =
  section ppf "Figure 12 - compiler energy optimization at p_m = 1%"
    "paper: 4-25% savings, geometric mean 17%; DNN swings e.g. (3,3,4,6)";
  Format.fprintf ppf "   %-16s %12s %-14s %9s %9s %10s@." "benchmark"
    "search space" "opt swings" "E_opt/E" "saving" "mismatch";
  hr ppf;
  let ratios = ref [] in
  List.iter
    (fun r ->
      let ratio = r.opt_energy /. r.full_energy in
      ratios := ratio :: !ratios;
      Format.fprintf ppf "   %-16s %12d (%-12s %9.3f %8.1f%% %9.3f@."
        r.bench.B.short
        (Swing_opt.search_space_size ~tasks:r.bench.B.abstract_tasks)
        (String.concat "," (List.map string_of_int r.swings) ^ ")")
        ratio
        ((1.0 -. ratio) *. 100.0)
        r.eval.B.mismatch)
    (optimizations ());
  let geo =
    Promise_ml.Metrics.geometric_mean !ratios
  in
  hr ppf;
  Format.fprintf ppf "   geometric-mean saving: %.1f%% (paper: 17%%)@."
    ((1.0 -. geo) *. 100.0)

let table2 ppf =
  section ppf "Table 2 - benchmark inventory"
    "dims / tasks / minimum digital precision / optimal swing at p_m = 1%";
  Format.fprintf ppf "   %-16s %8s %8s %6s %8s %8s %-12s@." "benchmark" "N"
    "rows" "#AT" "ref acc" "CONV-OPT" "opt swing";
  hr ppf;
  let opts = optimizations () in
  let opt_for (b : B.t) =
    List.find_opt (fun r -> r.bench.B.short = b.B.short) opts
  in
  List.iter
    (fun (b : B.t) ->
      let n, rows =
        match Graph.tasks b.B.graph with
        | (_, t) :: _ -> (t.At.vector_len, t.At.loop_iterations)
        | [] -> (0, 0)
      in
      let swings =
        match opt_for b with
        | Some r -> "(" ^ String.concat "," (List.map string_of_int r.swings) ^ ")"
        | None -> "-"
      in
      Format.fprintf ppf "   %-16s %8d %8d %6d %8.3f %7db %-12s@." b.B.short n
        rows b.B.abstract_tasks b.B.reference_accuracy b.B.conv_opt_bits swings)
    (B.fig10_suite () @ [ B.dnn B.D1; B.dnn B.D2; B.dnn B.D3 ])

(* ------------------------------------------------------------------ *)
(* §6.2 state of the art                                               *)
(* ------------------------------------------------------------------ *)

let soa_knn ppf =
  section ppf "§6.2 - vs the 14nm k-NN accelerator [7]"
    "paper (scaled to 65nm): 4.1x/3.7x lower energy, 3.1x/3.4x lower \
     throughput, 1.3x/1.1x EDP advantage";
  List.iter
    (fun (metric, published) ->
      let p = B.knn_soa_program ~metric in
      let energy_j = Model.total (Model.program_energy_steady p) *. 1e-12 in
      let decisions_per_s =
        1e9 /. float_of_int (Model.program_steady_cycles p)
      in
      let c = Soa.compare published ~ours_energy_j:energy_j ~ours_decisions_per_s:decisions_per_s in
      Format.fprintf ppf "   %a@.@." Soa.pp_comparison c)
    [ (`L1, Soa.knn_l1_14nm); (`L2, Soa.knn_l2_14nm) ]

let soa_dnn ppf =
  section ppf "§6.2 - vs the 28nm sparse DNN engine [6]"
    "paper (raw): 1.15x energy saving, 19.9x throughput, 22x EDP";
  let _, energy_pj, delay_ns = B.dnn_soa () in
  let c =
    Soa.compare ~scale_to_65nm:false Soa.dnn_28nm
      ~ours_energy_j:(energy_pj *. 1e-12)
      ~ours_decisions_per_s:(1e9 /. delay_ns)
  in
  Format.fprintf ppf "   %a@." Soa.pp_comparison c

let cm_compare ppf =
  section ppf "§6.2 - vs the original compute memory (CM)"
    "paper: up to 1.9x speed-up from the analog pipeline, ~5.5% energy \
     saving from earlier sleep";
  Format.fprintf ppf "   %-16s %10s %10s@." "benchmark" "speed-up" "saving";
  hr ppf;
  let savings = ref [] in
  List.iter
    (fun (b : B.t) ->
      let p = b.B.per_decision_program in
      let speedup = Cm.speedup_vs_cm_steady p in
      let saving = Cm.energy_saving_vs_cm_steady p in
      savings := saving :: !savings;
      Format.fprintf ppf "   %-16s %9.2fx %9.1f%%@." b.B.short speedup
        (saving *. 100.0))
    (B.fig10_suite ());
  hr ppf;
  let mean =
    List.fold_left ( +. ) 0.0 !savings /. float_of_int (List.length !savings)
  in
  Format.fprintf ppf "   mean energy saving: %.1f%% (paper: 5.5%%)@."
    (mean *. 100.0)

let ablation_tp ppf =
  section ppf "§3.2 ablation - cost of operational diversity"
    "pipeline clocked at the worst-case TP over ALL ISA ops vs the \
     per-program TP (paper: up to 2x throughput loss)";
  Format.fprintf ppf "   %-16s %8s %12s %12s %8s@." "benchmark" "TP"
    "cycles@TP" "cycles@worst" "slowdown";
  hr ppf;
  List.iter
    (fun (b : B.t) ->
      let p = b.B.per_decision_program in
      let fast = Model.program_steady_cycles p in
      let slow = Model.program_steady_cycles_at_worst_case_tp p in
      Format.fprintf ppf "   %-16s %8d %12d %12d %7.2fx@." b.B.short
        (Timing.program_tp p) fast slow
        (float_of_int slow /. float_of_int fast))
    (B.fig10_suite ())

let size_sweep ppf =
  section ppf "Table 2 - problem-size sweep"
    "the per-decision cost scaling across the Table-2 size variants";
  Format.fprintf ppf "   %-22s %6s %6s %8s %12s %12s %10s@." "variant" "N"
    "rows" "banks" "delay(ns)" "energy(pJ)" "ref acc";
  hr ppf;
  List.iter
    (fun (b : B.t) ->
      let n, rows =
        match Graph.tasks b.B.graph with
        | (_, t) :: _ -> (t.At.vector_len, t.At.loop_iterations)
        | [] -> (0, 0)
      in
      Format.fprintf ppf "   %-22s %6d %6d %8d %12.0f %12.0f %10.3f@."
        b.B.short n rows b.B.banks (promise_delay_ns b)
        (Model.total (promise_decision_energy b))
        b.B.reference_accuracy)
    (B.size_variants ())

let error_sources ppf =
  section ppf "Error-source ablation"
    "which behavioral error source costs accuracy at a low swing \
     (template matching L2, swing 1)";
  let b = B.template_l2 () in
  Format.fprintf ppf "   %-40s %10s@." "error sources enabled" "accuracy";
  hr ppf;
  let run name profile =
    let e = b.B.evaluate ~profile ~swings:[ 1 ] () in
    Format.fprintf ppf "   %-40s %10.3f@." name e.B.promise_accuracy
  in
  run "none (ideal, but 8-bit + ADC quantized)"
    (Promise_arch.Bank.Custom { lut = false; leakage = false });
  run "+ LUT non-linearity"
    (Promise_arch.Bank.Custom { lut = true; leakage = false });
  run "+ capacitor leakage"
    (Promise_arch.Bank.Custom { lut = false; leakage = true });
  run "full silicon profile" Promise_arch.Bank.Silicon;
  Format.fprintf ppf
    "   (the machine adds swing-dependent aREAD noise in every row)@."

let dma_overhead ppf =
  section ppf "Fidelity - DMA traffic the paper does not price"
    "per-decision X staging over a 16 B/cycle rail; weights pre-stored";
  Format.fprintf ppf "   %-16s %10s %12s %14s %12s@." "benchmark" "X bytes"
    "delay(ns)" "+DMA delay" "overhead";
  hr ppf;
  List.iter
    (fun (b : B.t) ->
      let bytes = Promise_energy.Dma.x_bytes_per_decision b.B.graph in
      let cycles, _pj = Promise_energy.Dma.decision_overhead b.B.graph in
      let base = promise_delay_ns b in
      let with_dma = base +. float_of_int cycles in
      Format.fprintf ppf "   %-16s %10d %12.0f %14.0f %11.2fx@." b.B.short
        bytes base with_dma (with_dma /. base))
    (B.fig10_suite ())

let ext_ablation ppf =
  section ppf "§3.3 extension ablation - the omitted operations"
    "element-wise write-back [30] and shuffle/compare [10,31] were \
     dropped to keep TP small; this prices re-adding them";
  let open Promise_isa.Extensions in
  List.iter
    (fun e ->
      Format.fprintf ppf "   %-24s delay %2d cyc, %5.1f pJ/op -> worst-case TP %d@."
        (name e) (delay e) (energy_pj e)
        (worst_case_tp_with [ e ]))
    all;
  hr ppf;
  Format.fprintf ppf "   %-16s %4s %22s %22s@." "benchmark" "TP" "+writeback"
    "+shuffle/compare";
  List.iter
    (fun (b : B.t) ->
      let tp = Timing.program_tp b.B.per_decision_program in
      Format.fprintf ppf "   %-16s %4d %21.2fx %21.2fx@." b.B.short tp
        (tp_inflation [ Elementwise_writeback ] ~task_tp:tp)
        (tp_inflation [ Shuffle_compare ] ~task_tp:tp))
    (B.fig10_suite ())

let adc_fidelity ppf =
  section ppf "Fidelity - ADC throughput consistency"
    "the paper's throughput model assumes the 8-unit ADC never limits \
     TP, yet 8 x TP < 138 for every kernel here; the discrete-event \
     scheduler quantifies the gap (EXPERIMENTS.md)";
  Format.fprintf ppf "   %-16s %4s %14s %16s %12s@." "benchmark" "TP"
    "ideal itvl" "unit-acc. itvl" "ADC stalls";
  hr ppf;
  List.iter
    (fun (b : B.t) ->
      match b.B.per_decision_program.Program.tasks with
      | task :: _ when Task.iterations task > 1 ->
          let ideal = Promise_arch.Scheduler.run ~ideal_adc:true task in
          let real = Promise_arch.Scheduler.run ~ideal_adc:false task in
          let show s =
            match Promise_arch.Scheduler.throughput_interval s with
            | Some i -> string_of_int i
            | None -> "-"
          in
          Format.fprintf ppf "   %-16s %4d %14s %16s %12d@." b.B.short
            (Timing.task_tp task) (show ideal) (show real)
            real.Promise_arch.Scheduler.adc_stalls
      | _ -> ())
    (B.fig10_suite ())

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let yield_analysis ppf =
  section ppf "Yield - accuracy across process-variation corners"
    "each noise seed models a different die; Eq. (3)'s 2.6-sigma margin \
     targets 99% per-aggregate confidence";
  let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233 ] in
  Format.fprintf ppf "   %-16s %6s %8s %8s %8s %12s@." "benchmark" "swing"
    "min" "median" "max" "dies at p_m=1%";
  hr ppf;
  List.iter
    (fun ((b : B.t), swing) ->
      let accs =
        List.map
          (fun seed ->
            (b.B.evaluate ~seed ~swings:[ swing ] ()).B.promise_accuracy)
          seeds
        |> List.sort compare
      in
      let arr = Array.of_list accs in
      let n = Array.length arr in
      let within =
        List.length
          (List.filter
             (fun a -> b.B.reference_accuracy -. a <= 0.01)
             accs)
      in
      Format.fprintf ppf "   %-16s %6d %8.3f %8.3f %8.3f %8d/%d@." b.B.short
        swing arr.(0)
        arr.(n / 2)
        arr.(n - 1)
        within n)
    [ (B.matched_filter (), 1); (B.template_l2 (), 2); (B.template_l2 (), 4) ]

let validation = Validation.report

(* The campaign over all eight scenarios at batch 1, as promise-faultsim
   runs it at PROMISE_BATCH=1; its verdict is the campaign CLI's to act
   on, not the report's. *)
let resilience ppf =
  ignore
    (Promise_core.Workload.run_job ppf
       (Promise_core.Workload.run_local Promise_core.Supervisor.plain)
       (Campaign.job ~quick:false ~max_residual:0 ()))

let sections =
  [
    ("validation", false, validation);
    ("resilience", true, resilience);
    ("table1", false, table1);
    ("table3", false, table3);
    ("eq3", false, eq3_table);
    ("isa", false, isa_demo);
    ("fig10a", false, fig10a);
    ("fig10b", false, fig10b);
    ("fig11", false, fig11);
    ("fig12", true, fig12);
    ("table2", true, table2);
    ("soa_knn", false, soa_knn);
    ("soa_dnn", true, soa_dnn);
    ("cm", false, cm_compare);
    ("ablation", false, ablation_tp);
    ("extensions", false, ext_ablation);
    ("adc_fidelity", false, adc_fidelity);
    ("size_sweep", false, size_sweep);
    ("error_sources", false, error_sources);
    ("dma", false, dma_overhead);
    ("yield", true, yield_analysis);
  ]

let quick_names () =
  List.filter_map (fun (n, slow, _) -> if slow then None else Some n) sections

let all_names () = List.map (fun (n, _, _) -> n) sections

(* Each item renders one section into a private buffer; the report is
   printed only once every item is in, in list order, so it is
   byte-identical whichever executor rendered the sections. *)
let workload printers names =
  {
    Promise_core.Workload.kind = "report";
    digest = Promise_core.Checkpoint.digest_of_config ~kind:"report-sections" names;
    labels = Array.of_list (List.map (fun n -> "section:" ^ n) names);
    run =
      (fun i ->
        let buf = Buffer.create 4096 in
        let bppf = Format.formatter_of_buffer buf in
        printers.(i) bppf;
        Format.pp_print_flush bppf ();
        Buffer.contents buf);
  }

let print ppf names results =
  let quarantined = ref 0 in
  List.iteri
    (fun i name ->
      match results.(i) with
      | Ok s -> Format.pp_print_string ppf s
      | Error e ->
          incr quarantined;
          Format.fprintf ppf "@.== %s ==@.   SECTION QUARANTINED: %s@." name
            (E.to_string e))
    names;
  Format.pp_print_flush ppf ();
  !quarantined

let job names =
  let printer name =
    List.find_map (fun (n, _, f) -> if n = name then Some f else None) sections
  in
  match List.filter (fun n -> Option.is_none (printer n)) names with
  | _ :: _ as unknown ->
      E.fail ~layer:"report" ~code:E.Invalid_operand
        (Printf.sprintf "unknown sections: %s; available: %s"
           (String.concat ", " unknown)
           (String.concat ", " (all_names ())))
  | [] ->
      Ok
        {
          Promise_core.Workload.workload =
            workload (Array.of_list (List.filter_map printer names)) names;
          header = ignore;
          render =
            (fun ppf results ->
              match print ppf names results with
              | 0 -> Ok ()
              | n -> Error (Printf.sprintf "%d sections were quarantined" n));
        }

module For_tests = struct
  let sections = sections
end
