(* Tests for the resilience subsystem: fault-descriptor algebra
   (QCheck properties over the validated builders), BIST localization
   against injected ground truth, lane-sparing recovery, and the typed
   error contract of the builders. *)

module P = Promise
module Arch = P.Arch
module Faults = Arch.Faults
module Selftest = Arch.Selftest
module Dsl = P.Ir.Dsl
module Rt = P.Compiler.Runtime
module Rng = P.Analog.Rng
module E = P.Error

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool

let fok = function Ok v -> v | Error e -> fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Fault-descriptor properties                                         *)
(* ------------------------------------------------------------------ *)

(* Random fault descriptors built through the validated constructors,
   so every generated value is reachable through the public API. *)
let gen_faults st =
  let open QCheck.Gen in
  let ok = function Ok v -> v | Error _ -> assert false in
  let f = ref Faults.none in
  for _ = 1 to int_bound 3 st do
    f :=
      ok
        (Faults.with_stuck_lane !f ~lane:(int_bound 127 st)
           ~code:(int_range (-128) 127 st))
  done;
  for _ = 1 to int_bound 2 st do
    f := ok (Faults.with_dead_lane !f ~lane:(int_bound 127 st))
  done;
  if bool st then f := Faults.with_dead_bank !f;
  if bool st then
    f := Faults.with_adc_offset !f (float_range (-0.2) 0.2 st);
  f := ok (Faults.with_dead_adc_units !f (int_bound 8 st));
  if bool st then
    f :=
      ok
        (Faults.with_xreg_flips !f ~seed:(int_bound 9999 st)
           ~rate:(float_range 0.0 1.0 st));
  f := ok (Faults.with_swing_drift !f (int_bound 7 st));
  f := ok (Faults.with_leakage_mult !f (float_range 1.0 16.0 st));
  !f

let arb_faults = QCheck.make ~print:Faults.For_tests.to_string gen_faults

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"faults to_string/of_string round-trip" ~count:300
    arb_faults (fun f ->
      match Faults.For_tests.of_string (Faults.For_tests.to_string f) with
      | Ok f' -> Faults.equal f f'
      | Error _ -> false)

let qcheck_apply_stuck_idempotent =
  QCheck.Test.make ~name:"apply_stuck is idempotent" ~count:300
    (QCheck.pair arb_faults
       (QCheck.array_of_size (QCheck.Gen.int_bound 128)
          (QCheck.float_range (-1.0) 1.0)))
    (fun (f, v) ->
      let once = Faults.apply_stuck f v in
      let twice = Faults.apply_stuck f once in
      once = twice)

let qcheck_compose_none_identity =
  QCheck.Test.make ~name:"compose with none is the identity" ~count:300
    arb_faults (fun f ->
      Faults.equal (Faults.For_tests.compose f Faults.none) f
      && Faults.equal (Faults.For_tests.compose Faults.none f) f)

let qcheck_is_none_iff_equal_none =
  QCheck.Test.make ~name:"is_none iff equal to none" ~count:300 arb_faults
    (fun f -> Faults.For_tests.is_none f = Faults.equal f Faults.none)

let test_is_none_after_add () =
  check bool "none is none" true (Faults.For_tests.is_none Faults.none);
  check bool "compose none none" true
    (Faults.For_tests.is_none (Faults.For_tests.compose Faults.none Faults.none));
  check bool "stuck lane is a fault" false
    (Faults.For_tests.is_none (fok (Faults.with_stuck_lane Faults.none ~lane:0 ~code:1)));
  check bool "dead bank is a fault" false
    (Faults.For_tests.is_none (Faults.with_dead_bank Faults.none))

let test_compose_merges () =
  let a = fok (Faults.with_stuck_lane Faults.none ~lane:3 ~code:10) in
  let b = fok (Faults.with_dead_lane Faults.none ~lane:7) in
  let c = Faults.For_tests.compose a b in
  check (Alcotest.list Alcotest.int) "faulty lanes" [ 3; 7 ]
    (Faults.For_tests.faulty_lanes c);
  (* the right-hand side wins on a conflicting lane *)
  let b' = fok (Faults.with_stuck_lane Faults.none ~lane:3 ~code:99) in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "conflict resolution" [ (3, 99) ]
    (Faults.stuck_lanes (Faults.For_tests.compose a b'))

(* ------------------------------------------------------------------ *)
(* Typed errors from the builders                                      *)
(* ------------------------------------------------------------------ *)

let expect_invalid name = function
  | Ok _ -> fail (name ^ ": expected a typed error")
  | Error e ->
      check bool name true (e.E.code = E.Invalid_operand)

let test_builder_errors () =
  expect_invalid "lane out of range"
    (Faults.with_stuck_lane Faults.none ~lane:200 ~code:0);
  expect_invalid "code out of range"
    (Faults.with_stuck_lane Faults.none ~lane:0 ~code:500);
  expect_invalid "adc unit count"
    (Faults.with_dead_adc_units Faults.none 9);
  expect_invalid "flip rate" (Faults.with_xreg_flips Faults.none ~seed:1 ~rate:1.5);
  expect_invalid "swing drift" (Faults.with_swing_drift Faults.none 8);
  expect_invalid "leakage mult" (Faults.with_leakage_mult Faults.none 0.5);
  expect_invalid "unparsable description" (Faults.For_tests.of_string "garbage")

(* ------------------------------------------------------------------ *)
(* BIST localization                                                   *)
(* ------------------------------------------------------------------ *)

let test_bist_localization () =
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:2) in
  Arch.Bank.set_faults (Arch.Machine.bank m 0)
    (fok (Faults.with_stuck_lane Faults.none ~lane:5 ~code:64));
  Arch.Bank.set_faults (Arch.Machine.bank m 1)
    (fok (Faults.with_dead_adc_units Faults.none 6));
  let report = fok (Selftest.run m) in
  check Alcotest.int "banks tested" 2 report.Selftest.banks_tested;
  check bool "stuck lane localized" true
    (List.exists
       (function
         | Selftest.Stuck_lane { lane = 5; code } -> abs (code - 64) <= 2
         | _ -> false)
       (Selftest.findings_for report ~bank:0));
  check bool "dead ADC units detected" true
    (List.exists
       (function Selftest.Dead_adc _ -> true | _ -> false)
       (Selftest.findings_for report ~bank:1))

let test_bist_clean_machine () =
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:1) in
  let report = fok (Selftest.run m) in
  check Alcotest.int "no findings on a healthy machine" 0
    (List.length report.Selftest.findings)

let test_bist_all_adc_dead () =
  (* Every ADC unit dead: the machine layer refuses to execute; BIST
     must turn that refusal into a localized finding, not an error. *)
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:1) in
  Arch.Bank.set_faults (Arch.Machine.bank m 0)
    (fok (Faults.with_dead_adc_units Faults.none 8));
  let report = fok (Selftest.run m) in
  check bool "all-dead ADC reported" true
    (List.exists
       (function Selftest.Dead_adc _ -> true | _ -> false)
       (Selftest.findings_for report ~bank:0))

let test_bist_all_banks_dead () =
  (* Every bank dead: BIST must still return a report localizing every
     bank, and the derived recovery must exclude them all. *)
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:2) in
  for b = 0 to 1 do
    Arch.Bank.set_faults (Arch.Machine.bank m b)
      (Faults.with_dead_bank Faults.none)
  done;
  let report = fok (Selftest.run m) in
  for b = 0 to 1 do
    check bool
      (Printf.sprintf "dead bank %d reported" b)
      true
      (List.exists
         (function Selftest.Dead_bank -> true | _ -> false)
         (Selftest.findings_for report ~bank:b))
  done;
  let recovery = Rt.recovery_of_report report in
  check (Alcotest.list Alcotest.int) "recovery excludes every bank" [ 0; 1 ]
    (List.sort compare recovery.Rt.excluded_banks)

(* ------------------------------------------------------------------ *)
(* Lane-sparing recovery                                               *)
(* ------------------------------------------------------------------ *)

let test_lane_sparing_recovery () =
  let make_machine () =
    let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:1) in
    Arch.Bank.set_faults (Arch.Machine.bank m 0)
      (fok (Faults.with_stuck_lane Faults.none ~lane:5 ~code:100));
    m
  in
  let rows = 4 and cols = 40 in
  let rng = Rng.create 1003 in
  let w =
    Array.init rows (fun _ ->
        Array.init cols (fun _ -> Rng.uniform rng ~lo:(-0.8) ~hi:0.8))
  in
  let x = Array.init cols (fun _ -> Rng.uniform rng ~lo:(-0.8) ~hi:0.8) in
  let k =
    Dsl.kernel ~name:"t_spare"
      ~decls:
        [
          Dsl.matrix "W" ~rows ~cols;
          Dsl.vector "x" ~len:cols;
          Dsl.out_vector "out" ~len:rows;
        ]
      [ Dsl.for_store ~iterations:rows ~out:"out" (Dsl.dot "W" "x") ]
  in
  let reference = P.Ml.Linalg.mat_vec w x in
  let worst_error ?recovery () =
    let b = Rt.bindings () in
    Rt.bind_matrix b "W" w;
    Rt.bind_vector b "x" x;
    let g = fok (P.compile k) in
    let r = fok (Rt.run ~machine:(make_machine ()) ?recovery g b) in
    let o = fok (Rt.final_output r) in
    Array.to_seqi o.Rt.values
    |> Seq.fold_left
         (fun acc (i, v) -> Float.max acc (Float.abs (v -. reference.(i))))
         0.0
  in
  let recovery : Rt.recovery =
    {
      Rt.default_recovery with
      Rt.spared_lanes = [ 5 ];
      max_retries = 0;
      digital_fallback = false;
    }
  in
  let unspared = worst_error () in
  let spared = worst_error ~recovery () in
  check bool
    (Printf.sprintf "stuck lane corrupts the result (%.4f)" unspared)
    true (unspared > 0.3);
  check bool
    (Printf.sprintf "sparing restores accuracy (%.4f)" spared)
    true (spared < 0.05)

(* ------------------------------------------------------------------ *)
(* Degradation to the digital fallback when no analog resource is left *)
(* ------------------------------------------------------------------ *)

let small_kernel_setup () =
  let rows = 4 and cols = 40 in
  let rng = Rng.create 2203 in
  let w =
    Array.init rows (fun _ ->
        Array.init cols (fun _ -> Rng.uniform rng ~lo:(-0.8) ~hi:0.8))
  in
  let x = Array.init cols (fun _ -> Rng.uniform rng ~lo:(-0.8) ~hi:0.8) in
  let k =
    Dsl.kernel ~name:"t_degrade"
      ~decls:
        [
          Dsl.matrix "W" ~rows ~cols;
          Dsl.vector "x" ~len:cols;
          Dsl.out_vector "out" ~len:rows;
        ]
      [ Dsl.for_store ~iterations:rows ~out:"out" (Dsl.dot "W" "x") ]
  in
  let b = Rt.bindings () in
  Rt.bind_matrix b "W" w;
  Rt.bind_vector b "x" x;
  (fok (P.compile k), b, P.Ml.Linalg.mat_vec w x)

let check_digital_run ~name r reference =
  let o = fok (Rt.final_output r) in
  (* no Task reached the machine: every chunk came from the digital
     reference *)
  check bool (name ^ ": no Task launched") true
    (Arch.Trace.records_in_order (Arch.Machine.trace r.Rt.machine) = []);
  Array.iteri
    (fun i v ->
      check bool
        (Printf.sprintf "%s: out[%d] accurate (%.4f vs %.4f)" name i v
           reference.(i))
        true
        (Float.abs (v -. reference.(i)) < 0.05))
    o.Rt.values

let test_all_banks_excluded_falls_back () =
  (* Recovery excludes every bank: with the fallback on, the whole run
     degrades to the digital reference instead of failing. *)
  let g, b, reference = small_kernel_setup () in
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:2) in
  let recovery =
    { Rt.default_recovery with Rt.excluded_banks = [ 0; 1 ] }
  in
  check_digital_run ~name:"all-banks-excluded"
    (fok (Rt.run ~machine:m ~recovery g b))
    reference

let test_all_lanes_spared_falls_back () =
  (* Sparing all 128 lanes leaves no healthy column anywhere: same
     digital degradation, through the lane rather than the bank path. *)
  let g, b, reference = small_kernel_setup () in
  let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:2) in
  let recovery =
    {
      Rt.default_recovery with
      Rt.spared_lanes = List.init 128 (fun l -> l);
    }
  in
  check_digital_run ~name:"all-lanes-spared"
    (fok (Rt.run ~machine:m ~recovery g b))
    reference

let test_no_resource_without_fallback_is_typed () =
  (* With the fallback off the same situations are a typed Capacity
     error, never an exception. *)
  let g, b, _ = small_kernel_setup () in
  let expect_capacity name recovery =
    let m = Arch.Machine.create (Arch.Machine.ideal_config ~banks:2) in
    match Rt.run ~machine:m ~recovery g b with
    | Ok _ -> fail (name ^ ": expected a Capacity error")
    | Error e -> check bool name true (e.E.code = E.Capacity)
  in
  expect_capacity "all banks excluded, no fallback"
    {
      Rt.default_recovery with
      Rt.excluded_banks = [ 0; 1 ];
      digital_fallback = false;
    };
  expect_capacity "all lanes spared, no fallback"
    {
      Rt.default_recovery with
      Rt.spared_lanes = List.init 128 (fun l -> l);
      digital_fallback = false;
    }

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "resilience"
    [
      ( "faults",
        [
          QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_apply_stuck_idempotent;
          QCheck_alcotest.to_alcotest qcheck_compose_none_identity;
          QCheck_alcotest.to_alcotest qcheck_is_none_iff_equal_none;
          Alcotest.test_case "is_none after add/compose" `Quick
            test_is_none_after_add;
          Alcotest.test_case "compose merges lane faults" `Quick
            test_compose_merges;
          Alcotest.test_case "builders reject bad inputs with typed errors"
            `Quick test_builder_errors;
        ] );
      ( "selftest",
        [
          Alcotest.test_case "localizes stuck lane and dead ADC" `Quick
            test_bist_localization;
          Alcotest.test_case "clean machine reports nothing" `Quick
            test_bist_clean_machine;
          Alcotest.test_case "all ADC units dead becomes a finding" `Quick
            test_bist_all_adc_dead;
          Alcotest.test_case "all banks dead: localized and excluded" `Quick
            test_bist_all_banks_dead;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "lane sparing restores a stuck-lane kernel"
            `Quick test_lane_sparing_recovery;
          Alcotest.test_case "all banks excluded degrades to digital" `Quick
            test_all_banks_excluded_falls_back;
          Alcotest.test_case "all lanes spared degrades to digital" `Quick
            test_all_lanes_spared_falls_back;
          Alcotest.test_case "no analog resource without fallback is typed"
            `Quick test_no_resource_without_fallback_is_typed;
        ] );
    ]
