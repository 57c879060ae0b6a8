module Opcode = Promise_isa.Opcode
module Task = Promise_isa.Task
module Analog = Promise_analog
module Arch = Promise_arch
module Tables = Promise_energy.Tables
module Runtime = Promise_compiler.Runtime
module Pipeline = Promise_compiler.Pipeline
module Dsl = Promise_ir.Dsl
module Ml = Promise_ml
module E = Promise_core.Error

let err_string = E.to_string

type check = { name : string; passed : bool; detail : string }
type level = { title : string; checks : check list }

let check name passed detail = { name; passed; detail }

let checkf name ~expected ~measured ~tolerance =
  check name
    (Float.abs (measured -. expected) <= tolerance)
    (Printf.sprintf "expected %.4g, measured %.4g (tol %.2g)" expected measured
       tolerance)

(* ------------------------------------------------------------------ *)
(* Component level                                                     *)
(* ------------------------------------------------------------------ *)

let component_level () =
  let table3_rows =
    [
      (Opcode.C1_aread, 5, 61.0);
      (Opcode.C1_asubt, 7, 103.0);
      (Opcode.C1_write, 2, 73.0);
    ]
  in
  let table3_checks =
    List.concat_map
      (fun (op, delay, energy) ->
        [
          check
            (Printf.sprintf "%s delay" (Opcode.class1_name op))
            (Arch.Timing.class1_delay op = delay)
            (Printf.sprintf "%d vs published %d" (Arch.Timing.class1_delay op)
               delay);
          checkf
            (Printf.sprintf "%s energy" (Opcode.class1_name op))
            ~expected:energy
            ~measured:(Tables.class1_energy_pj op)
            ~tolerance:1e-9;
        ])
      table3_rows
  in
  (* empirical aREAD noise sigma vs |w| f(swing) *)
  let noise_check =
    let rng = Analog.Rng.create 1001 in
    let noise = Analog.Noise.create ~rng () in
    let w = 0.6 and swing = 3 and n = 20000 in
    let sum = ref 0.0 and sum2 = ref 0.0 in
    for _ = 1 to n do
      let v = Analog.Noise.aread noise ~swing w in
      sum := !sum +. v;
      sum2 := !sum2 +. (v *. v)
    done;
    let mean = !sum /. float_of_int n in
    let sigma = sqrt ((!sum2 /. float_of_int n) -. (mean *. mean)) in
    checkf "aREAD noise sigma" ~expected:(Analog.Noise.sigma ~swing ~w)
      ~measured:sigma ~tolerance:0.01
  in
  let lut_check =
    check "silicon LUT deviation < 2.5%"
      (Analog.Lut.max_deviation Analog.Lut.Silicon.aread < 0.025)
      (Printf.sprintf "max deviation %.4f"
         (Analog.Lut.max_deviation Analog.Lut.Silicon.aread))
  in
  let adc_check =
    let worst = ref 0.0 in
    let v = ref (-0.99) in
    while !v < 0.99 do
      worst := Float.max !worst (Float.abs (Analog.Adc.convert !v -. !v));
      v := !v +. 0.003
    done;
    check "ADC error within lsb/2"
      (!worst <= (Analog.Adc.lsb /. 2.0) +. 1e-9)
      (Printf.sprintf "worst %.5f vs lsb/2 %.5f" !worst (Analog.Adc.lsb /. 2.0))
  in
  let pwm_check =
    let exact = ref true in
    for code = -128 to 127 do
      if
        Float.abs (Analog.Pwm.subranged_read code -. (float_of_int code /. 128.0))
        > 1e-12
      then exact := false
    done;
    check "PWM sub-ranged read exact" !exact "all 256 codes"
  in
  {
    title = "component level (vs published silicon models)";
    checks = table3_checks @ [ noise_check; lut_check; adc_check; pwm_check ];
  }

(* ------------------------------------------------------------------ *)
(* Architecture level                                                  *)
(* ------------------------------------------------------------------ *)

let architecture_level () =
  let rng = Analog.Rng.create 1002 in
  let machine = Arch.Machine.create (Arch.Machine.ideal_config ~banks:2) in
  (* dot product on the ideal machine vs the float reference *)
  let dot_check =
    let rows = 6 and cols = 48 in
    let w =
      Array.init rows (fun _ ->
          Array.init cols (fun _ -> Analog.Rng.uniform rng ~lo:(-0.8) ~hi:0.8))
    in
    let x = Array.init cols (fun _ -> Analog.Rng.uniform rng ~lo:(-0.8) ~hi:0.8) in
    let k =
      Dsl.kernel ~name:"v_dot"
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
    match
      Result.bind (Pipeline.compile k) (fun g -> Runtime.run ~machine g b)
    with
    | Error e -> check "ideal dot kernel" false (err_string e)
    | Ok r -> (
        match Runtime.final_output r with
        | Error e -> check "ideal dot kernel" false (err_string e)
        | Ok o ->
            let reference = Ml.Linalg.mat_vec w x in
            let worst = ref 0.0 in
            Array.iteri
              (fun i v ->
                worst := Float.max !worst (Float.abs (v -. reference.(i))))
              o.Runtime.values;
            check "ideal dot kernel vs float reference" (!worst < 0.05)
              (Printf.sprintf "worst error %.4f" !worst))
  in
  let argmin_check =
    let candidates =
      Array.init 9 (fun _ ->
          Array.init 24 (fun _ -> Analog.Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
    in
    let x = Array.copy candidates.(5) in
    let k =
      Dsl.kernel ~name:"v_tm"
        ~decls:
          [
            Dsl.matrix "W" ~rows:9 ~cols:24;
            Dsl.vector "x" ~len:24;
            Dsl.out_vector "out" ~len:9;
          ]
        [
          Dsl.for_store ~iterations:9 ~out:"out" (Dsl.l1_distance "W" "x");
          Dsl.argmin "out";
        ]
    in
    let b = Runtime.bindings () in
    Runtime.bind_matrix b "W" candidates;
    Runtime.bind_vector b "x" x;
    match
      Result.bind (Pipeline.compile k) (fun g -> Runtime.run ~machine g b)
    with
    | Error e -> check "ideal argmin kernel" false (err_string e)
    | Ok r -> (
        match Runtime.final_output r with
        | Ok { Runtime.decision = Some (i, _); _ } ->
            check "ideal argmin kernel" (i = 5)
              (Printf.sprintf "decision %d vs 5" i)
        | _ -> check "ideal argmin kernel" false "no decision")
  in
  let scheduler_check =
    let ok =
      List.for_all Arch.Scheduler.matches_closed_form
        [
          Task.make ~rpt_num:63 ~class1:Opcode.C1_asubt
            ~class2:{ Opcode.asd = Opcode.Asd_absolute; avd = true }
            ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ();
          Task.make ~rpt_num:127 ~class1:Opcode.C1_aread
            ~class2:{ Opcode.asd = Opcode.Asd_sign_mult; avd = true }
            ~class3:Opcode.C3_adc ~class4:Opcode.C4_sigmoid ();
        ]
    in
    check "scheduler matches the closed-form timing" ok "fill + (n-1)*TP"
  in
  let ctrl_check =
    let ok =
      List.for_all
        (fun (c1, c2, c3, c4) ->
          let t = { Task.nop with Task.class1 = c1; class2 = c2; class3 = c3; class4 = c4 } in
          match Task.validate t with
          | Error _ -> true
          | Ok t ->
              Arch.Ctrl.last_cycle (Arch.Ctrl.iteration_schedule t)
              = Arch.Timing.fill_cycles t)
        (Task.legal_compositions ())
    in
    check "CTRL schedules span the stage budget" ok
      "last deassertion = fill cycles"
  in
  {
    title = "architecture level (functional, ideal machine)";
    checks = [ dot_check; argmin_check; scheduler_check; ctrl_check ];
  }

(* ------------------------------------------------------------------ *)
(* Application level                                                   *)
(* ------------------------------------------------------------------ *)

let application_level () =
  let budgeted (b : Benchmarks.t) budget =
    let e = b.Benchmarks.evaluate ~swings:(Benchmarks.max_swings b) () in
    check
      (Printf.sprintf "%s mismatch within %.0f%%" b.Benchmarks.short
         (budget *. 100.0))
      (e.Benchmarks.mismatch <= budget)
      (Printf.sprintf "accuracy %.3f vs reference %.3f"
         e.Benchmarks.promise_accuracy e.Benchmarks.reference_accuracy)
  in
  {
    title = "application level (benchmark accuracy at max swing)";
    checks =
      [
        budgeted (Benchmarks.matched_filter ()) 0.02;
        budgeted (Benchmarks.template_l1 ()) 0.02;
        budgeted (Benchmarks.svm ()) 0.06;
        budgeted (Benchmarks.knn_l1 ()) 0.03;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Resilience level                                                    *)
(* ------------------------------------------------------------------ *)

let resilience_level () =
  let module Faults = Arch.Faults in
  let module Selftest = Arch.Selftest in
  let ok_exn = function Ok v -> v | Error e -> invalid_arg (err_string e) in
  (* A deliberately broken 4-bank silicon machine: one distinct fault
     per bank, then assert the BIST localizes each of them. *)
  let machine =
    Arch.Machine.create
      { Arch.Machine.banks = 4; profile = Arch.Bank.Silicon; noise_seed = Some 7 }
  in
  let inject bank f = Arch.Bank.set_faults (Arch.Machine.bank machine bank) f in
  inject 0 (ok_exn (Faults.with_stuck_lane Faults.none ~lane:3 ~code:64));
  inject 1 (ok_exn (Faults.with_dead_adc_units Faults.none 8));
  inject 2 (Faults.with_dead_bank Faults.none);
  inject 3 (Faults.with_adc_offset Faults.none 0.08);
  let bist_checks =
    match Selftest.run machine with
    | Error e -> [ check "self-test run" false (err_string e) ]
    | Ok report ->
        let detail bank =
          String.concat "; "
            (List.map Selftest.kind_name
               (Selftest.findings_for report ~bank))
        in
        let has name bank pred =
          check name
            (List.exists pred (Selftest.findings_for report ~bank))
            (Printf.sprintf "bank %d findings: [%s]" bank (detail bank))
        in
        [
          check "self-test covers every bank"
            (report.Selftest.banks_tested = 4)
            (Printf.sprintf "%d of 4 banks tested"
               report.Selftest.banks_tested);
          has "BIST localizes the stuck lane (bank 0, lane 3)" 0 (function
            | Selftest.Stuck_lane { lane = 3; code } -> abs (code - 64) <= 2
            | _ -> false);
          has "BIST detects the dead ADC bank (bank 1)" 1 (function
            | Selftest.Dead_adc _ -> true
            | _ -> false);
          has "BIST detects the dead bank (bank 2)" 2 (function
            | Selftest.Dead_bank -> true
            | _ -> false);
          has "BIST estimates the ADC offset (bank 3)" 3 (function
            | Selftest.Adc_offset { offset } ->
                Float.abs (offset -. 0.08) < 0.04
            | _ -> false);
        ]
  in
  (* Lane sparing: a dot kernel on a bank with a badly stuck lane,
     recovered purely by re-planning the layout over healthy lanes (no
     retry, no fallback). The ideal profile isolates the fault from
     read noise: the stuck column is the only corruption. *)
  let sparing_checks =
    let make_machine () =
      let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:1) in
      Arch.Bank.set_faults (Arch.Machine.bank m 0)
        (ok_exn (Faults.with_stuck_lane Faults.none ~lane:5 ~code:100));
      m
    in
    let rows = 4 and cols = 40 in
    let rng = Analog.Rng.create 1003 in
    let w =
      Array.init rows (fun _ ->
          Array.init cols (fun _ -> Analog.Rng.uniform rng ~lo:(-0.8) ~hi:0.8))
    in
    let x = Array.init cols (fun _ -> Analog.Rng.uniform rng ~lo:(-0.8) ~hi:0.8) in
    let k =
      Dsl.kernel ~name:"v_spare"
        ~decls:
          [
            Dsl.matrix "W" ~rows ~cols;
            Dsl.vector "x" ~len:cols;
            Dsl.out_vector "out" ~len:rows;
          ]
        [ Dsl.for_store ~iterations:rows ~out:"out" (Dsl.dot "W" "x") ]
    in
    let reference = Ml.Linalg.mat_vec w x in
    let worst_error ?recovery () =
      let b = Runtime.bindings () in
      Runtime.bind_matrix b "W" w;
      Runtime.bind_vector b "x" x;
      Result.map
        (fun (o : Runtime.task_output) ->
          let worst = ref 0.0 in
          Array.iteri
            (fun i v ->
              worst := Float.max !worst (Float.abs (v -. reference.(i))))
            o.Runtime.values;
          !worst)
        (Result.bind
           (Result.bind (Pipeline.compile k) (fun g ->
                Runtime.run ~machine:(make_machine ()) ?recovery g b))
           Runtime.final_output)
    in
    let recovery : Runtime.recovery =
      {
        Runtime.default_recovery with
        Runtime.spared_lanes = [ 5 ];
        max_retries = 0;
        digital_fallback = false;
      }
    in
    match (worst_error (), worst_error ~recovery ()) with
    | Error e, _ | _, Error e ->
        [ check "lane-sparing recovery" false (err_string e) ]
    | Ok unspared, Ok spared ->
        [
          check "stuck lane corrupts the unspared kernel" (unspared > 0.3)
            (Printf.sprintf "worst error %.4f" unspared);
          check "lane-sparing recovery (stuck lane, no fallback)"
            (spared < 0.05)
            (Printf.sprintf "worst error %.4f (unspared %.4f)" spared unspared);
        ]
  in
  {
    title = "resilience level (BIST localization + graceful degradation)";
    checks = bist_checks @ sparing_checks;
  }

let all_levels () =
  [
    component_level ();
    architecture_level ();
    application_level ();
    resilience_level ();
  ]

let report ppf =
  let all_passed = ref true in
  List.iter
    (fun level ->
      Format.fprintf ppf "@.== Validation: %s ==@." level.title;
      List.iter
        (fun c ->
          if not c.passed then all_passed := false;
          Format.fprintf ppf "   [%s] %-42s %s@."
            (if c.passed then "ok" else "FAIL")
            c.name c.detail)
        level.checks)
    (all_levels ());
  Format.fprintf ppf "@.validation %s@."
    (if !all_passed then "PASSED" else "FAILED")
