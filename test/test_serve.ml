(* The serving layer: bounded-queue admission (typed rejection +
   incident), coalescing (flush-by-size, flush-by-deadline on a fake
   clock), per-request watchdog timeouts, the batched ≡ single
   bit-identity contract through the whole service path (noisy twin
   machines), percentile math of the log-linear histogram and the
   bounded FIFO's accounting. *)

module P = Promise
module Serve = P.Serve
module Qb = P.Queue_bounded
module H = P.Histogram
module E = P.Error

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let fok = function Ok v -> v | Error e -> Alcotest.fail (E.to_string e)

let code_of = function
  | Ok _ -> Alcotest.fail "expected a typed error"
  | Error (e : E.t) -> e.E.code

(* ------------------------------------------------------------------ *)
(* Queue_bounded                                                        *)
(* ------------------------------------------------------------------ *)

let test_queue_fifo_and_rejection () =
  let q = fok (Qb.create ~capacity:2) in
  fok (Qb.try_push q 1);
  fok (Qb.try_push q 2);
  (match Qb.try_push q 3 with
  | Error e ->
      check bool "capacity code" true (e.E.code = E.Capacity);
      check bool "depth in context" true
        (List.mem_assoc "depth" e.E.context)
  | Ok () -> Alcotest.fail "third push must be rejected");
  check (Alcotest.option int) "fifo pop 1" (Some 1) (Qb.pop_opt q);
  check (Alcotest.option int) "fifo pop 2" (Some 2) (Qb.pop_opt q);
  check (Alcotest.option int) "empty" None (Qb.pop_opt q);
  let s = Qb.stats q in
  check int "pushed" 2 s.Qb.pushed;
  check int "rejected" 1 s.Qb.rejected;
  check int "popped" 2 s.Qb.popped;
  check int "max depth" 2 s.Qb.max_depth

let test_queue_validation () =
  check bool "capacity 0 rejected" true
    (code_of (Qb.create ~capacity:0) = E.Invalid_operand);
  check bool "huge capacity rejected" true
    (code_of (Qb.create ~capacity:2_000_000) = E.Invalid_operand)

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_exact_small () =
  let h = H.create () in
  for v = 1 to 50 do
    H.add h (float_of_int v)
  done;
  (* nearest rank: rank = ceil (q * 50); values below 64 are exact *)
  check (Alcotest.float 0.0) "p50" 25.0 (H.percentile h 0.5);
  check (Alcotest.float 0.0) "p0 is rank 1" 1.0 (H.percentile h 0.0);
  check (Alcotest.float 0.0) "p100" 50.0 (H.percentile h 1.0);
  check (Alcotest.float 0.0) "p99 rank 50" 50.0 (H.percentile h 0.99);
  check (Alcotest.float 0.0) "p98 rank 49" 49.0 (H.percentile h 0.98);
  check (Alcotest.float 1e-9) "mean" 25.5 (H.mean h);
  check (Alcotest.float 0.0) "max" 50.0 (H.max_value h);
  check (Alcotest.float 0.0) "empty percentile" 0.0
    (H.percentile (H.create ()) 0.5)

let test_histogram_log_bounds () =
  (* above 64 a reported percentile is the bucket's upper bound: never
     below the sample, and within 1/32 relative width above it *)
  List.iter
    (fun v ->
      let h = H.create () in
      H.add h (float_of_int v);
      let p = H.percentile h 1.0 in
      check bool
        (Printf.sprintf "p100(%d) >= sample" v)
        true
        (p >= float_of_int v);
      check bool
        (Printf.sprintf "p100(%d) within 1/32" v)
        true
        (p <= float_of_int v *. (1.0 +. 1.0 /. 32.0)))
    [ 64; 100; 1000; 4095; 65_537; 1_000_000_000 ];
  let h = H.create () in
  H.add h (-5.0);
  check (Alcotest.float 0.0) "negative clamps to 0" 0.0 (H.percentile h 1.0);
  H.add h 1000.0;
  let total = List.fold_left (fun a (_, c) -> a + c) 0 (H.buckets h) in
  check int "buckets account for every sample" 2 total

(* ------------------------------------------------------------------ *)
(* Serve engine (fake clock)                                            *)
(* ------------------------------------------------------------------ *)

let mf = lazy (P.Benchmarks.matched_filter ())

let noisy_model () =
  Serve.model_of_benchmark ~noise_seed:(Some 42) (Lazy.force mf)

let quiet_model () = Serve.model_of_benchmark (Lazy.force mf)

let engine ?deadline_ms ?(mode = Serve.Batched) ?(queue = 16) ?(batch_max = 4)
    ?(flush_us = 1000) ?incidents ~clock model =
  let outs = ref [] in
  let eng =
    fok
      (Serve.create ~clock ?incidents ?deadline_ms ~mode ~queue ~batch_max
         ~flush_us
         ~respond:(fun o -> outs := o :: !outs)
         [ model ])
  in
  (eng, fun () -> List.rev !outs)

let test_admission_overflow () =
  let buf = Buffer.create 256 in
  let incidents = P.Incident.For_tests.to_buffer buf in
  let clock () = 0L in
  let eng, outs =
    engine ~clock ~queue:2 ~batch_max:64 ~incidents (quiet_model ())
  in
  let name = Serve.model_name (quiet_model ()) in
  fok (Serve.submit eng ~rid:0 ~model:name);
  fok (Serve.submit eng ~rid:1 ~model:name);
  check bool "third submit rejected with Capacity" true
    (code_of (Serve.submit eng ~rid:2 ~model:name) = E.Capacity);
  check bool "unknown model rejected as Invalid_operand" true
    (code_of (Serve.submit eng ~rid:3 ~model:"nope") = E.Invalid_operand);
  let s = Serve.For_tests.stats eng in
  check int "submitted" 2 s.Serve.submitted;
  check int "rejected counts both causes" 2 s.Serve.rejected;
  check bool "admission-reject incidents logged" true
    (P.Incident.For_tests.count incidents >= 2);
  check bool "incident kind on the wire" true
    (let all = Buffer.contents buf in
     let rec occurrences i acc =
       match String.index_from_opt all i 'a' with
       | None -> acc
       | Some j ->
           if
             j + 16 <= String.length all
             && String.sub all j 16 = "admission-reject"
           then occurrences (j + 1) (acc + 1)
           else occurrences (j + 1) acc
     in
     occurrences 0 0 = 2);
  check int "nothing dispatched yet" 0 (List.length (outs ()))

let test_flush_by_size () =
  let clock () = 0L in
  let m = quiet_model () in
  let name = Serve.model_name m in
  let eng, outs = engine ~clock ~batch_max:3 m in
  for rid = 0 to 2 do
    fok (Serve.submit eng ~rid ~model:name)
  done;
  Serve.pump eng;
  (* batch_max reached: dispatched with no clock advance, no flush_due *)
  let os = outs () in
  check int "three outcomes" 3 (List.length os);
  List.iteri
    (fun i o ->
      check int "arrival order" i o.Serve.o_rid;
      let r = fok o.Serve.o_result in
      check int "rode a 3-decision batch" 3 r.Serve.batch;
      check bool "non-empty values" true (Array.length r.Serve.values > 0))
    os;
  check int "one coalesced dispatch" 1 (Serve.For_tests.stats eng).Serve.batches

let test_flush_by_deadline () =
  let now = ref 0L in
  let clock () = !now in
  let m = quiet_model () in
  let name = Serve.model_name m in
  let eng, outs = engine ~clock ~batch_max:64 ~flush_us:1000 m in
  fok (Serve.submit eng ~rid:0 ~model:name);
  now := 400_000L;
  fok (Serve.submit eng ~rid:1 ~model:name);
  Serve.pump eng;
  (* deadline = oldest arrival + flush_us: 0 + 1_000_000 ns *)
  check bool "deadline anchored to the oldest request" true
    (Serve.For_tests.next_deadline_ns eng = Some 1_000_000L);
  Serve.For_tests.flush_due eng;
  check int "not due yet" 0 (List.length (outs ()));
  now := 999_999L;
  Serve.For_tests.flush_due eng;
  check int "still not due" 0 (List.length (outs ()));
  now := 1_000_000L;
  Serve.For_tests.flush_due eng;
  let os = outs () in
  check int "flushed at the deadline" 2 (List.length os);
  List.iter
    (fun o -> check int "coalesced pair" 2 (fok o.Serve.o_result).Serve.batch)
    os;
  check bool "no pending deadline left" true
    (Serve.For_tests.next_deadline_ns eng = None)

let test_watchdog_timeout () =
  let now = ref 0L in
  let clock () = !now in
  let buf = Buffer.create 256 in
  let incidents = P.Incident.For_tests.to_buffer buf in
  let m = quiet_model () in
  let name = Serve.model_name m in
  let eng, outs =
    engine ~clock ~batch_max:64 ~flush_us:50_000 ~deadline_ms:1.0 ~incidents m
  in
  fok (Serve.submit eng ~rid:0 ~model:name);
  Serve.pump eng;
  (* the watchdog tightens the flush horizon: due at 1 ms, not 50 ms *)
  check bool "watchdog bounds the deadline" true
    (Serve.For_tests.next_deadline_ns eng = Some 1_000_000L);
  now := 5_000_000L;
  Serve.For_tests.flush_due eng;
  (match outs () with
  | [ o ] ->
      check bool "typed Timeout" true (code_of o.Serve.o_result = E.Timeout)
  | os -> Alcotest.failf "expected one timeout outcome, got %d" (List.length os));
  let s = Serve.For_tests.stats eng in
  check int "timeout counted" 1 s.Serve.timeouts;
  check int "nothing served" 0 s.Serve.served;
  check bool "timeout incident logged" true (P.Incident.For_tests.count incidents >= 1)

(* Batched ≡ Single through the full service path, on NOISY twin
   machines: the k-th served decision must consume the machine's RNG
   streams exactly as the k-th sequential single execution. Matched
   filter is a single-task program (the execute_batch_into dispatch),
   LinReg a four-task one (the run_program_batch dispatch). *)
let batched_equals_single model =
  let n = 10 in
  let run mode =
    let clock () = 0L in
    let m = model () in
    let name = Serve.model_name m in
    let eng, outs = engine ~clock ~mode ~batch_max:4 ~queue:16 m in
    for rid = 0 to n - 1 do
      fok (Serve.submit eng ~rid ~model:name)
    done;
    Serve.pump eng;
    Serve.flush_all eng;
    let os = outs () in
    check int "all served" n (List.length os);
    List.map
      (fun o ->
        (o.Serve.o_rid, Array.map Int64.bits_of_float (fok o.Serve.o_result).Serve.values))
      os
  in
  let batched = run Serve.Batched and single = run Serve.Single in
  List.iter2
    (fun (rid_b, vb) (rid_s, vs) ->
      check int "same rid order" rid_b rid_s;
      check int "same emission count" (Array.length vb) (Array.length vs);
      Array.iteri
        (fun i b ->
          check bool
            (Printf.sprintf "rid %d value %d bitwise equal" rid_b i)
            true
            (Int64.equal b vs.(i)))
        vb)
    batched single

let test_batched_equals_single_bitwise () =
  List.iter batched_equals_single
    [
      noisy_model;
      (fun () ->
        Serve.model_of_benchmark ~noise_seed:(Some 42)
          (P.Benchmarks.linreg ()));
    ]

let test_create_validation () =
  let respond _ = () in
  let m () = quiet_model () in
  let mk ?(queue = 4) ?(batch_max = 4) ?(flush_us = 1000) models =
    Serve.create ~queue ~batch_max ~flush_us ~respond models
  in
  check bool "batch_max 0" true
    (code_of (mk ~batch_max:0 [ m () ]) = E.Invalid_operand);
  check bool "batch_max 4097" true
    (code_of (mk ~batch_max:4097 [ m () ]) = E.Invalid_operand);
  check bool "flush_us 0" true
    (code_of (mk ~flush_us:0 [ m () ]) = E.Invalid_operand);
  check bool "queue 0" true (code_of (mk ~queue:0 [ m () ]) = E.Invalid_operand);
  check bool "no models" true (code_of (mk []) = E.Invalid_operand);
  check bool "duplicate models" true
    (code_of (mk [ m (); m () ]) = E.Invalid_operand)

(* The in-process load generator end to end (real clock, small): both
   modes serve everything and produce the same digest. *)
let test_load_run_identity () =
  let run mode =
    fok
      (Serve.load_run ~mode ~queue:64 ~batch_max:8 ~flush_us:1000 ~requests:32
         ~load:(Serve.Closed_loop 16) ~model:noisy_model ())
  in
  let b = run Serve.Batched and s = run Serve.Single in
  check int "batched served all" 32 b.Serve.l_served;
  check int "single served all" 32 s.Serve.l_served;
  check bool "digests equal across modes" true
    (String.equal b.Serve.l_digest s.Serve.l_digest);
  check bool "batched coalesced" true (b.Serve.l_mean_batch > 1.0);
  check (Alcotest.float 0.0) "single never coalesces" 1.0 s.Serve.l_max_batch

let () =
  Alcotest.run "serve"
    [
      ( "queue_bounded",
        [
          Alcotest.test_case "fifo and typed rejection" `Quick
            test_queue_fifo_and_rejection;
          Alcotest.test_case "validation and drain" `Quick
            test_queue_validation;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact small-value percentiles" `Quick
            test_histogram_exact_small;
          Alcotest.test_case "log-bucket upper bounds" `Quick
            test_histogram_log_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "admission overflow" `Quick
            test_admission_overflow;
          Alcotest.test_case "flush by size" `Quick test_flush_by_size;
          Alcotest.test_case "flush by deadline (fake clock)" `Quick
            test_flush_by_deadline;
          Alcotest.test_case "watchdog timeout" `Quick test_watchdog_timeout;
          Alcotest.test_case "batched = single, bitwise, noisy twins" `Quick
            test_batched_equals_single_bitwise;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "load_run identity" `Quick test_load_run_identity;
        ] );
    ]
