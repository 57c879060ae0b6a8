(* Analog behavioral model tests: RNG, swing, noise statistics, LUTs,
   leakage, ADC. *)

open Promise.Analog

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let check_close ~eps msg = Alcotest.check (Alcotest.float eps) msg

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    checkf "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  check Alcotest.bool "different seeds differ" true
    (Rng.float a <> Rng.float b)

let test_rng_float_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    check Alcotest.bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check Alcotest.bool "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 3 in
  let n = 20000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  check_close ~eps:0.05 "mean ~ 0" 0.0 mean;
  check_close ~eps:0.05 "variance ~ 1" 1.0 var

let test_rng_split_independent () =
  let root = Rng.create 4 in
  let a = Rng.For_tests.split root and b = Rng.For_tests.split root in
  check Alcotest.bool "split streams differ" true (Rng.float a <> Rng.float b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 6 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Array.iteri (fun i v -> check Alcotest.int "permutation" i v) sorted

(* ------------------------------------------------------------------ *)
(* Swing                                                               *)
(* ------------------------------------------------------------------ *)

let test_swing_endpoints () =
  checkf "code 0 = 5 mV" 5.0 (Swing.mv_per_lsb 0);
  checkf "code 7 = 30 mV" 30.0 (Swing.mv_per_lsb 7);
  checkf "f(0) = 0.75" 0.75 (Swing.noise_factor 0);
  checkf "f(7) = 0.08" 0.08 (Swing.noise_factor 7)

let test_swing_monotone () =
  for s = 0 to 6 do
    check Alcotest.bool "mV increasing" true
      (Swing.mv_per_lsb (s + 1) > Swing.mv_per_lsb s);
    check Alcotest.bool "f decreasing" true
      (Swing.noise_factor (s + 1) < Swing.noise_factor s);
    check Alcotest.bool "energy scale increasing" true
      (Swing.read_energy_scale (s + 1) > Swing.read_energy_scale s)
  done

let test_swing_energy_scale_range () =
  checkf "max swing full energy" 1.0 (Swing.read_energy_scale 7);
  check_close ~eps:1e-9 "min swing: fixed half + 5/30 of the rest"
    (0.5 +. (0.5 *. 5.0 /. 30.0))
    (Swing.read_energy_scale 0)

let test_swing_of_mv () =
  check Alcotest.int "5 mV -> code 0" 0 (Swing.For_tests.of_mv 5.0);
  check Alcotest.int "30 mV -> code 7" 7 (Swing.For_tests.of_mv 30.0);
  check Alcotest.int "beyond max clamps" 7 (Swing.For_tests.of_mv 100.0)

let test_swing_validate () =
  (match Swing.For_tests.validate 8 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "8 must be rejected");
  match Swing.For_tests.validate (-1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "-1 must be rejected"

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)
(* ------------------------------------------------------------------ *)

let test_noise_disabled_identity () =
  let n = Noise.disabled in
  checkf "identity" 0.42 (Noise.aread n ~swing:0 0.42)

let test_noise_sigma_model () =
  checkf "sigma = |w| f(s)" (0.5 *. Swing.noise_factor 3)
    (Noise.sigma ~swing:3 ~w:(-0.5));
  checkf "zero weight, zero sigma" 0.0 (Noise.sigma ~swing:0 ~w:0.0)

let test_noise_statistics () =
  (* empirical sigma of aREAD matches |w| · f(swing) *)
  let rng = Rng.create 11 in
  let noise = Noise.create ~rng () in
  let w = 0.8 and swing = 2 in
  let n = 20000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let v = Noise.aread noise ~swing w in
    sum := !sum +. v;
    sum2 := !sum2 +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let sigma = sqrt ((!sum2 /. float_of_int n) -. (mean *. mean)) in
  check_close ~eps:0.02 "mean = w" w mean;
  check_close ~eps:0.02 "sigma = |w| f(s)"
    (Noise.sigma ~swing ~w) sigma

let test_noise_aggregate_sigma () =
  checkf "sigma_agg = f/sqrt N"
    (Swing.noise_factor 7 /. sqrt 128.0)
    (Noise.aggregate_sigma ~swing:7 ~n:128);
  check Alcotest.bool "decreasing in N" true
    (Noise.aggregate_sigma ~swing:0 ~n:256
    < Noise.aggregate_sigma ~swing:0 ~n:64)

let test_noise_vector_independent () =
  let rng = Rng.create 12 in
  let noise = Noise.create ~rng () in
  let v = Noise.For_tests.aread_vector noise ~swing:0 [| 0.5; 0.5; 0.5 |] in
  check Alcotest.bool "per-element noise differs" true
    (v.(0) <> v.(1) || v.(1) <> v.(2))

(* ------------------------------------------------------------------ *)
(* LUT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lut_identity () =
  List.iter
    (fun v -> check_close ~eps:1e-6 "identity" v (Lut.apply Lut.identity v))
    [ -1.0; -0.37; 0.0; 0.5; 1.0 ]

let test_lut_clamps () =
  checkf "clamps above" 1.0 (Lut.apply Lut.identity 3.0);
  checkf "clamps below" (-1.0) (Lut.apply Lut.identity (-3.0))

let test_lut_compressive () =
  let l = Lut.For_tests.compressive ~alpha:0.02 in
  check_close ~eps:1e-3 "x - a x^3 at 1" 0.98 (Lut.apply l 1.0);
  check_close ~eps:1e-3 "odd symmetric" (-0.98) (Lut.apply l (-1.0));
  check_close ~eps:1e-4 "near-linear at 0" 0.0 (Lut.apply l 0.0)

let test_lut_max_deviation () =
  check Alcotest.bool "silicon luts deviate < 2.5%" true
    (Lut.max_deviation Lut.Silicon.aread < 0.025
    && Lut.max_deviation Lut.Silicon.square < 0.025
    && Lut.max_deviation Lut.Silicon.mult < 0.025);
  checkf "identity deviates 0" 0.0 (Lut.max_deviation Lut.identity)

let test_lut_offset () =
  let l = Lut.For_tests.with_offset ~offset:0.1 Lut.identity in
  check_close ~eps:1e-6 "offset applied" 0.35 (Lut.apply l 0.25)

let test_lut_interpolation () =
  (* between entries of a coarse table, interpolation is linear *)
  let l = Lut.For_tests.of_function ~entries:3 (fun x -> x *. x) in
  (* entries at -1 (1.0), 0 (0.0), 1 (1.0); midpoint 0.5 -> 0.5 *)
  check_close ~eps:1e-6 "linear between entries" 0.5 (Lut.apply l 0.5)

(* ------------------------------------------------------------------ *)
(* Leakage                                                             *)
(* ------------------------------------------------------------------ *)

let test_leakage_rates () =
  checkf "bitline rate is 0.6%/ns" 0.006 Leakage.For_tests.bitline_rate_per_ns;
  check Alcotest.bool "hold cap leaks less" true
    (Leakage.capacitor_rate_per_ns < Leakage.For_tests.bitline_rate_per_ns)

let test_leakage_droop () =
  let v = 0.8 in
  check_close ~eps:1e-9 "no time, no droop" v (Leakage.bitline ~idle_ns:0.0 v);
  check Alcotest.bool "droop reduces magnitude" true
    (Leakage.bitline ~idle_ns:10.0 v < v);
  (* ~0.6%/ns: after 1 ns, within first order of 0.6% *)
  check_close ~eps:1e-4 "rate matches"
    (v *. exp (-0.006))
    (Leakage.bitline ~idle_ns:1.0 v)

let test_leakage_negative_time_rejected () =
  match Leakage.For_tests.droop ~rate_per_ns:0.01 ~ns:(-1.0) 1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative time must be rejected"

(* ------------------------------------------------------------------ *)
(* ADC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_adc_constants () =
  check Alcotest.int "256 levels" 256 Adc.levels;
  check Alcotest.int "8 units" 8 Adc.units_per_bank;
  check Alcotest.int "138 cycles" 138 Adc.conversion_delay_cycles

let test_adc_quantize_bounds () =
  check Alcotest.int "minimum" 0 (Adc.quantize (-1.0));
  check Alcotest.int "below range clamps" 0 (Adc.quantize (-5.0));
  check Alcotest.int "above range clamps" 255 (Adc.quantize 5.0)

let test_adc_roundtrip_error () =
  List.iter
    (fun v ->
      let err = Float.abs (Adc.convert v -. v) in
      check Alcotest.bool "error within lsb/2" true (err <= (Adc.lsb /. 2.0) +. 1e-9))
    [ -0.99; -0.5; -0.1; 0.0; 0.123; 0.7; 0.99 ]

let test_adc_monotone () =
  let prev = ref (-1) in
  let v = ref (-1.0) in
  while !v < 1.0 do
    let c = Adc.quantize !v in
    check Alcotest.bool "monotone codes" true (c >= !prev);
    prev := c;
    v := !v +. 0.001
  done

(* ------------------------------------------------------------------ *)
(* PWM word-line scheme (Fig. 1(b))                                    *)
(* ------------------------------------------------------------------ *)

let test_pwm_pulses () =
  (* code 0b1010 = 10: bits 1 and 3 pulse for 2 and 8 units *)
  let ps = Pwm.For_tests.pulses ~bits:4 10 in
  check Alcotest.int "four word lines" 4 (List.length ps);
  let total = List.fold_left (fun a p -> a + p.Pwm.duration) 0 ps in
  check Alcotest.int "total duration = code" 10 total;
  List.iter
    (fun p ->
      let expected = if 10 land p.Pwm.weight <> 0 then p.Pwm.weight else 0 in
      check Alcotest.int "per-bit duration" expected p.Pwm.duration)
    ps

let test_pwm_bitline_drop_linear () =
  (* ΔV_BL is linear in the code: drop(a) + drop(b) = drop(a+b) when
     the bit sets are disjoint *)
  let drop c = Pwm.For_tests.bitline_drop ~bits:8 ~mv_per_lsb:5.0 c in
  check_close ~eps:1e-9 "5 mV per LSB" 5.0 (drop 1);
  check_close ~eps:1e-9 "binary weighting" (drop 0b101) (drop 0b100 +. drop 0b001);
  check_close ~eps:1e-9 "full scale" (255.0 *. 5.0) (drop 255)

let test_pwm_subranged_exact () =
  (* the sub-ranged MSB/LSB read reproduces code/128 exactly *)
  for code = -128 to 127 do
    check_close ~eps:1e-12 "subranged = code/128"
      (float_of_int code /. 128.0)
      (Pwm.subranged_read code)
  done

let test_pwm_max_pulse () =
  check Alcotest.int "8-bit longest pulse" 128 (Pwm.For_tests.max_pulse_units ~bits:8);
  check Alcotest.int "4-bit longest pulse" 8 (Pwm.For_tests.max_pulse_units ~bits:4)

let test_pwm_bad_inputs () =
  (match Pwm.For_tests.pulses ~bits:4 16 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "code 16 at 4 bits must be rejected");
  match Pwm.subranged_read 200 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "code 200 must be rejected"

let qcheck_pwm_total_duration =
  QCheck.Test.make ~name:"pwm total pulse duration equals the code" ~count:300
    (QCheck.int_range 0 255) (fun code ->
      List.fold_left (fun a p -> a + p.Pwm.duration) 0 (Pwm.For_tests.pulses ~bits:8 code)
      = code)

let qcheck_adc_roundtrip =
  (* mid-tread codes span [-1, 0.9921875]; stay inside the unclamped
     region *)
  QCheck.Test.make ~name:"adc convert within lsb/2" ~count:1000
    (QCheck.float_range (-0.996) 0.996) (fun v ->
      Float.abs (Adc.convert v -. v) <= (Adc.lsb /. 2.0) +. 1e-9)

let qcheck_lut_identity_fixpoint =
  QCheck.Test.make ~name:"identity lut is a fixpoint" ~count:500
    (QCheck.float_range (-1.0) 1.0) (fun v ->
      Float.abs (Lut.apply Lut.identity v -. v) < 1e-6)

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng gaussian moments", `Slow, test_rng_gaussian_moments);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("swing endpoints", `Quick, test_swing_endpoints);
    ("swing monotone", `Quick, test_swing_monotone);
    ("swing energy scale range", `Quick, test_swing_energy_scale_range);
    ("swing of_mv", `Quick, test_swing_of_mv);
    ("swing validate", `Quick, test_swing_validate);
    ("noise disabled identity", `Quick, test_noise_disabled_identity);
    ("noise sigma model", `Quick, test_noise_sigma_model);
    ("noise empirical statistics", `Slow, test_noise_statistics);
    ("noise aggregate sigma", `Quick, test_noise_aggregate_sigma);
    ("noise vector independence", `Quick, test_noise_vector_independent);
    ("lut identity", `Quick, test_lut_identity);
    ("lut clamps", `Quick, test_lut_clamps);
    ("lut compressive", `Quick, test_lut_compressive);
    ("lut max deviation", `Quick, test_lut_max_deviation);
    ("lut offset", `Quick, test_lut_offset);
    ("lut interpolation", `Quick, test_lut_interpolation);
    ("leakage rates", `Quick, test_leakage_rates);
    ("leakage droop", `Quick, test_leakage_droop);
    ("leakage negative time", `Quick, test_leakage_negative_time_rejected);
    ("adc constants", `Quick, test_adc_constants);
    ("adc quantize bounds", `Quick, test_adc_quantize_bounds);
    ("adc roundtrip error", `Quick, test_adc_roundtrip_error);
    ("adc monotone", `Quick, test_adc_monotone);
    ("pwm pulses (Fig. 1b)", `Quick, test_pwm_pulses);
    ("pwm bitline drop linear", `Quick, test_pwm_bitline_drop_linear);
    ("pwm sub-ranged read exact", `Quick, test_pwm_subranged_exact);
    ("pwm max pulse", `Quick, test_pwm_max_pulse);
    ("pwm bad inputs", `Quick, test_pwm_bad_inputs);
    QCheck_alcotest.to_alcotest qcheck_adc_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_pwm_total_duration;
    QCheck_alcotest.to_alcotest qcheck_lut_identity_fixpoint;
  ]

let () = Alcotest.run "promise-analog" [ ("analog", suite) ]
