(* End-to-end benchmark tests: the Table-2 workloads compile, run on a
   Silicon-profile machine with small accuracy loss at full swing, and
   the compiler energy optimization finds cheaper swings within the
   p_m = 1% budget where the workload tolerates it. *)

module B = Promise.Benchmarks
module Model = Promise.Energy.Model
module Program = Promise.Isa.Program

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int

let ok_or_fail = function Ok v -> v | Error msg -> fail msg

let full_swing_eval (b : B.t) = b.B.evaluate ~swings:(B.max_swings b) ()

let check_benchmark_shape (b : B.t) ~tasks =
  check int (b.B.short ^ " abstract tasks") tasks b.B.abstract_tasks;
  check bool (b.B.short ^ " program nonempty") true
    (Program.length b.B.per_decision_program >= 1);
  check bool (b.B.short ^ " banks sane") true (b.B.banks >= 1 && b.B.banks <= 8);
  check bool
    (b.B.short ^ " conv workload macs")
    true
    (b.B.conv_workload.Promise.Energy.Conv.macs > 0)

let check_small_mismatch (b : B.t) ~budget =
  let e = full_swing_eval b in
  check bool
    (Printf.sprintf "%s mismatch %.3f within %.3f at full swing" b.B.short
       e.B.mismatch budget)
    true (e.B.mismatch <= budget)

let test_matched_filter () =
  let b = B.matched_filter () in
  check_benchmark_shape b ~tasks:1;
  check bool "reference accuracy high" true (b.B.reference_accuracy > 0.9);
  check_small_mismatch b ~budget:0.02

let test_template_l1 () =
  let b = B.template_l1 () in
  check_benchmark_shape b ~tasks:1;
  check_small_mismatch b ~budget:0.02

let test_template_l2 () =
  let b = B.template_l2 () in
  check_benchmark_shape b ~tasks:1;
  check_small_mismatch b ~budget:0.02

let test_svm () =
  let b = B.svm () in
  check_benchmark_shape b ~tasks:1;
  check bool "svm reference decent" true (b.B.reference_accuracy > 0.9);
  (* SVM is the paper's least noise-tolerant kernel *)
  check_small_mismatch b ~budget:0.06

let test_knn_l1 () =
  let b = B.knn_l1 () in
  check_benchmark_shape b ~tasks:1;
  check_small_mismatch b ~budget:0.03

let test_knn_l2 () =
  let b = B.knn_l2 () in
  check_benchmark_shape b ~tasks:1;
  check_small_mismatch b ~budget:0.03

let test_pca () =
  let b = B.pca () in
  check_benchmark_shape b ~tasks:1;
  let e = full_swing_eval b in
  check bool "feature fidelity > 0.9" true (e.B.promise_accuracy > 0.9)

let test_linreg () =
  let b = B.linreg () in
  check_benchmark_shape b ~tasks:4;
  let e = full_swing_eval b in
  check bool "parameter fidelity > 0.95" true (e.B.promise_accuracy > 0.95)

let test_dnn1 () =
  let b = B.dnn B.D1 in
  check_benchmark_shape b ~tasks:2;
  check bool "dnn stats present" true (b.B.stats <> None);
  check bool "dnn reference accuracy" true (b.B.reference_accuracy > 0.85);
  check_small_mismatch b ~budget:0.04

let test_energy_decreases_with_swing () =
  let b = B.template_l1 () in
  let e7 = Model.total (B.promise_energy b ~swings:[ 7 ]) in
  let e0 = Model.total (B.promise_energy b ~swings:[ 0 ]) in
  check bool "lower swing, lower energy" true (e0 < e7);
  (* savings bounded by the swing-dependent half of Class-1 energy *)
  check bool "savings < 50%" true (e0 > 0.5 *. e7)

let test_optimize_single_task_within_budget () =
  let b = B.template_l1 () in
  let swings, e = ok_or_fail (B.optimize b ~pm:0.01) in
  (match swings with
  | [ s ] -> check bool "optimized swing below max" true (s < 7)
  | _ -> fail "one swing expected");
  check bool "accuracy within budget of reference" true (e.B.mismatch <= 0.015);
  let opt = Model.total (B.promise_energy b ~swings) in
  let full = Model.total (B.promise_energy b ~swings:(B.max_swings b)) in
  check bool "optimization saves energy" true (opt < full)

let test_optimize_dnn_analytic () =
  let b = B.dnn B.D1 in
  let swings, _ = ok_or_fail (B.optimize b ~pm:0.01) in
  check int "one swing per layer" 2 (List.length swings);
  List.iter
    (fun s -> check bool "swing in range" true (s >= 0 && s <= 7))
    swings;
  (* the wider first layer gets an equal-or-lower swing *)
  match swings with
  | [ s0; s1 ] -> check bool "wider layer, lower swing" true (s0 <= s1)
  | _ -> ()

let test_optimize_rejects_multi_task_brute_force () =
  let b = B.linreg () in
  (* no stats and 4 tasks: brute force must refuse *)
  match B.optimize b ~pm:0.01 with
  | Error _ -> ()
  | Ok _ -> fail "multi-task brute force should be rejected"

(* The one evaluation protocol, on every Figure-10 benchmark (PCA and
   LinReg included): the same seed gives the same bits, and [prepare]
   runs once per evaluation, on a fresh machine of the [~banks] it was
   given. *)
let test_evaluate_deterministic () =
  List.iter
    (fun (b : B.t) ->
      let swings = List.map (fun _ -> 5) (B.max_swings b) in
      let banks = Promise.Compiler.Runtime.required_banks b.B.graph + 1 in
      let calls = ref 0 in
      let prepare m =
        incr calls;
        check int (b.B.short ^ " prepared machine banks") banks
          (Promise.Arch.Machine.n_banks m);
        check bool (b.B.short ^ " prepared machine trace empty") true
          ((Promise.Arch.Machine.trace m).Promise.Arch.Trace.records = [])
      in
      let run () = b.B.evaluate ~seed:7 ~prepare ~banks ~swings () in
      let a = run () in
      check int (b.B.short ^ " prepare ran once") 1 !calls;
      let c = run () in
      check int (b.B.short ^ " prepare ran once more") 2 !calls;
      check bool (b.B.short ^ " same seed, same accuracy") true
        (Int64.bits_of_float a.B.promise_accuracy
        = Int64.bits_of_float c.B.promise_accuracy))
    (B.fig10_suite ())

let test_accuracy_monotone_in_swing_roughly () =
  (* accuracy at max swing is not worse than at min swing by more than
     noise; at min swing distance kernels degrade measurably *)
  let b = B.template_l2 () in
  let lo = (b.B.evaluate ~swings:[ 0 ] ()).B.promise_accuracy in
  let hi = (b.B.evaluate ~swings:[ 7 ] ()).B.promise_accuracy in
  check bool "max swing at least as accurate" true (hi >= lo)

let test_per_decision_program_encodable () =
  List.iter
    (fun (b : B.t) ->
      let bytes = Program.to_binary b.B.per_decision_program in
      match Program.of_binary ~name:b.B.per_decision_program.Program.name bytes with
      | Ok p ->
          check bool (b.B.short ^ " binary roundtrip") true
            (Program.equal p b.B.per_decision_program)
      | Error msg -> fail msg)
    [ B.matched_filter (); B.template_l1 (); B.svm (); B.linreg () ]

let test_knn_soa_program_shape () =
  let p = B.knn_soa_program ~metric:`L1 in
  check int "single task" 1 (Program.length p);
  (match p.Program.tasks with
  | [ t ] ->
      check int "128 candidates" 128 (Promise.Isa.Task.iterations t);
      check int "single bank" 1 (Promise.Isa.Task.banks t)
  | _ -> fail "one task expected");
  (* the paper's throughput: TP = 7 for L1 *)
  check int "TP 7" 7 (Promise.Arch.Timing.program_tp p)

let test_size_variants () =
  let variants = B.size_variants () in
  check int "nine variants" 9 (List.length variants);
  (* the small matched-filter variant evaluates cleanly *)
  let mf = B.matched_filter_sized 256 in
  let e = mf.B.evaluate ~swings:(B.max_swings mf) () in
  check bool "MF-256 accurate" true (e.B.promise_accuracy > 0.9);
  (* bank usage grows with the problem size *)
  let banks_of n = (B.matched_filter_sized n).B.banks in
  check bool "wider filters use more banks" true
    (banks_of 256 < banks_of 1024)

let test_fig10_suite_complete () =
  let suite = B.fig10_suite () in
  check int "eight benchmarks" 8 (List.length suite);
  let shorts = List.map (fun b -> b.B.short) suite in
  List.iter
    (fun expected ->
      check bool (expected ^ " present") true (List.mem expected shorts))
    [ "Match.Filt."; "Temp.Match.L1"; "Temp.Match.L2"; "Linear SVM";
      "k-NN L1"; "k-NN L2"; "PCA"; "Linear Reg." ]

let suite =
  [
    ("matched filter end-to-end", `Slow, test_matched_filter);
    ("template L1 end-to-end", `Slow, test_template_l1);
    ("template L2 end-to-end", `Slow, test_template_l2);
    ("SVM end-to-end", `Slow, test_svm);
    ("k-NN L1 end-to-end", `Slow, test_knn_l1);
    ("k-NN L2 end-to-end", `Slow, test_knn_l2);
    ("PCA end-to-end", `Slow, test_pca);
    ("linear regression end-to-end", `Slow, test_linreg);
    ("DNN-1 end-to-end", `Slow, test_dnn1);
    ("energy decreases with swing", `Slow, test_energy_decreases_with_swing);
    ("optimize single-task kernel", `Slow, test_optimize_single_task_within_budget);
    ("optimize DNN analytically", `Slow, test_optimize_dnn_analytic);
    ("multi-task brute force rejected", `Slow, test_optimize_rejects_multi_task_brute_force);
    ("evaluation deterministic", `Slow, test_evaluate_deterministic);
    ("accuracy monotone in swing", `Slow, test_accuracy_monotone_in_swing_roughly);
    ("programs encodable", `Slow, test_per_decision_program_encodable);
    ("k-NN SoA configuration", `Slow, test_knn_soa_program_shape);
    ("figure-10 suite complete", `Quick, test_fig10_suite_complete);
    ("size variants", `Slow, test_size_variants);
  ]

let () = Alcotest.run "promise-benchmarks" [ ("benchmarks", suite) ]
