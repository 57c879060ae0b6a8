(* Supervised execution: retry/backoff, checkpoint/resume, incident
   log, quarantine, and the bit-identity of interrupted-and-resumed
   campaigns and reports. *)

open Alcotest
module P = Promise
module E = P.Error
module Retry = P.Retry
module Ckpt = P.Checkpoint
module Inc = P.Incident
module Sup = P.Supervisor
module Val = P.Validate

let get_ok = function
  | Ok v -> v
  | Error e -> fail ("unexpected error: " ^ E.to_string e)

let code = function Ok _ -> fail "expected Error" | Error e -> e.E.code

let tmp_path suffix =
  let path = Filename.temp_file "promise-test" suffix in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let qcheck_retry_deterministic =
  QCheck.Test.make ~name:"retry schedule is a pure function of the policy"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, max_attempts) ->
      let p () = get_ok (Retry.policy ~max_attempts ~seed ()) in
      Retry.For_tests.schedule (p ()) = Retry.For_tests.schedule (p ()))

let qcheck_retry_bounded =
  QCheck.Test.make ~name:"every backoff is in [0, cap * (1 + jitter)]"
    ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_range 2 10) (int_range 0 100))
    (fun (seed, max_attempts, jitter_pct) ->
      let jitter = float_of_int jitter_pct /. 100.0 in
      let p =
        get_ok
          (Retry.policy ~max_attempts ~base_delay_ms:10.0 ~max_delay_ms:80.0
             ~jitter ~seed ())
      in
      List.for_all
        (fun d -> d >= 0.0 && d <= 80.0 *. (1.0 +. jitter) +. 1e-9)
        (Retry.For_tests.schedule p))

let qcheck_retry_attempts_bounded =
  QCheck.Test.make ~name:"run makes at most max_attempts calls" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 20))
    (fun (max_attempts, fail_until) ->
      let p =
        get_ok
          (Retry.policy ~max_attempts ~base_delay_ms:1.0 ~max_delay_ms:2.0
             ~seed:0 ())
      in
      let calls = ref 0 in
      let f ~attempt:_ =
        incr calls;
        if !calls >= fail_until then Ok !calls
        else E.fail ~layer:"test" "not yet"
      in
      let r = Retry.run ~sleep:(fun _ -> ()) p f in
      !calls <= max_attempts
      && (match r with
         | Ok _ -> !calls = fail_until
         | Error _ -> !calls = max_attempts))

let test_retry_exhaustion_error () =
  let p =
    get_ok
      (Retry.policy ~max_attempts:3 ~base_delay_ms:5.0 ~max_delay_ms:20.0
         ~seed:7 ())
  in
  let slept = ref [] in
  let retries = ref 0 in
  let r =
    Retry.run
      ~sleep:(fun ms -> slept := ms :: !slept)
      ~on_retry:(fun ~attempt:_ ~delay_ms:_ _ -> incr retries)
      p
      (fun ~attempt:_ -> E.fail ~layer:"test" "always")
  in
  check int "two backoff sleeps" 2 (List.length !slept);
  check int "two on_retry callbacks" 2 !retries;
  (match r with
  | Ok _ -> fail "expected exhaustion"
  | Error e ->
      check string "promoted code" "retry-exhausted" (E.code_name e.E.code);
      check bool "attempts in context" true
        (List.mem_assoc "attempts" e.E.context));
  (* the recorded waits are exactly the published schedule *)
  check (list (float 1e-9)) "sleeps follow the schedule" (Retry.For_tests.schedule p)
    (List.rev !slept)

let test_retry_policy_validation () =
  let bad f = check string "invalid-operand" "invalid-operand" (E.code_name f) in
  bad (code (Retry.policy ~max_attempts:0 ~seed:0 ()));
  bad (code (Retry.policy ~base_delay_ms:(-1.0) ~seed:0 ()));
  bad (code (Retry.policy ~base_delay_ms:10.0 ~max_delay_ms:5.0 ~seed:0 ()));
  bad (code (Retry.policy ~jitter:1.5 ~seed:0 ()))

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let path = tmp_path ".ckpt" in
  let digest = Ckpt.digest_of_config ~kind:"test" [ "a"; "b" ] in
  let payload = (Array.init 16 (fun i -> float_of_int i), "tail") in
  get_ok (Ckpt.save ~path ~config_digest:digest payload);
  check bool "exists" true (Ckpt.exists path);
  let back : (float array * string, E.t) result =
    Ckpt.load ~path ~config_digest:digest
  in
  check bool "payload survives the round trip" true (get_ok back = payload);
  Ckpt.remove path;
  check bool "removed" false (Ckpt.exists path)

let test_checkpoint_stale () =
  let path = tmp_path ".ckpt" in
  get_ok
    (Ckpt.save ~path
       ~config_digest:(Ckpt.digest_of_config ~kind:"test" [ "run1" ])
       [| 1; 2; 3 |]);
  let r : (int array, E.t) result =
    Ckpt.load ~path
      ~config_digest:(Ckpt.digest_of_config ~kind:"test" [ "run2" ])
  in
  check string "stale rejected" "stale-checkpoint" (E.code_name (code r));
  Ckpt.remove path

let test_checkpoint_corrupt_and_missing () =
  let digest = Ckpt.digest_of_config ~kind:"test" [] in
  let missing : (int, E.t) result =
    Ckpt.load ~path:(tmp_path ".ckpt") ~config_digest:digest
  in
  check string "missing" "invalid-operand" (E.code_name (code missing));
  let path = tmp_path ".ckpt" in
  let oc = open_out path in
  output_string oc "this is not a checkpoint";
  close_out oc;
  let corrupt : (int, E.t) result = Ckpt.load ~path ~config_digest:digest in
  check string "corrupt" "invalid-operand" (E.code_name (code corrupt));
  Ckpt.remove path

(* ------------------------------------------------------------------ *)
(* Incident log                                                        *)
(* ------------------------------------------------------------------ *)

let test_incident_jsonl () =
  let buf = Buffer.create 256 in
  let t = Inc.For_tests.to_buffer buf in
  Inc.record t Inc.Retry [ ("item", "cell-7"); ("attempt", "1") ];
  Inc.record t Inc.Quarantine [ ("item", "cell \"7\"") ];
  Inc.record t Inc.Run_end [];
  check int "count" 3 (Inc.For_tests.count t);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check int "three JSONL lines" 3 (List.length lines);
  List.iteri
    (fun i line ->
      check bool "object per line" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      let seq = Printf.sprintf "{\"seq\":%d," (i + 1) in
      check bool "seq counts up" true
        (String.length line >= String.length seq
        && String.sub line 0 (String.length seq) = seq))
    lines;
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check bool "kind serialized" true
    (contains (List.nth lines 0) "\"kind\":\"retry\"");
  check bool "quotes escaped" true
    (contains (List.nth lines 1) "cell \\\"7\\\"")

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let test_validate () =
  check int "in range" 4 (get_ok (Val.int_in_range ~what:"--jobs" ~min:1 ~max:64 "4"));
  check int "trimmed" 4 (get_ok (Val.int_in_range ~what:"--jobs" ~min:1 ~max:64 " 4 "));
  let bad s =
    check string ("rejects " ^ s) "invalid-operand"
      (E.code_name (code (Val.int_in_range ~what:"--jobs" ~min:1 ~max:64 s)))
  in
  bad "fuor";
  bad "";
  bad "0";
  bad "65";
  bad "1e2";
  check string "negative float rejected" "invalid-operand"
    (E.code_name (code (Val.non_negative_float ~what:"--timeout-ms" "-1")));
  check bool "float ok" true
    (get_ok (Val.non_negative_float ~what:"--timeout-ms" "250.5") = 250.5)

let test_validate_env () =
  Unix.putenv "PROMISE_TEST_INT" "8";
  check bool "env set" true
    (get_ok (Val.env_int ~name:"PROMISE_TEST_INT" ~min:1 ~max:64) = Some 8);
  Unix.putenv "PROMISE_TEST_INT" "junk";
  (match Val.env_int ~name:"PROMISE_TEST_INT" ~min:1 ~max:64 with
  | Ok _ -> fail "junk env accepted"
  | Error e ->
      check string "typed env error" "invalid-operand" (E.code_name e.E.code);
      check bool "names the variable" true
        (List.exists (fun (_, v) -> v = "PROMISE_TEST_INT") e.E.context));
  Unix.putenv "PROMISE_TEST_INT" "";
  check bool "blank is unset" true
    (get_ok (Val.env_int ~name:"PROMISE_TEST_INT" ~min:1 ~max:64) = None)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervise_quarantine () =
  let buf = Buffer.create 256 in
  let inc = Inc.For_tests.to_buffer buf in
  let retry =
    get_ok
      (Retry.policy ~max_attempts:3 ~base_delay_ms:1.0 ~max_delay_ms:2.0
         ~seed:0 ())
  in
  let cfg = Sup.config ~retry ~incidents:inc ~sleep:(fun _ -> ()) () in
  let calls = ref 0 in
  let r =
    Sup.supervise cfg ~label:"cell-3" (fun ~attempt:_ ->
        incr calls;
        E.fail ~layer:"test" "broken cell")
  in
  check int "all attempts used" 3 !calls;
  check string "quarantined as retry-exhausted" "retry-exhausted"
    (E.code_name (code r));
  (* 2 retries + 1 quarantine in the incident trail *)
  check int "incidents logged" 3 (Inc.For_tests.count inc)

let test_supervise_catches_exceptions () =
  let cfg = Sup.config () in
  let r =
    Sup.supervise cfg ~label:"boom" (fun ~attempt:_ -> failwith "kaboom")
  in
  match r with
  | Ok _ -> fail "expected the exception to become an Error"
  | Error e ->
      check bool "captured exception in context" true
        (List.mem_assoc "exn" e.E.context)

let test_supervise_timeout_fake_clock () =
  (* a clock that jumps 100 ms per reading: every attempt is overdue *)
  let now = ref 0L in
  let clock () =
    now := Int64.add !now 100_000_000L;
    !now
  in
  let buf = Buffer.create 256 in
  let inc = Inc.For_tests.to_buffer buf in
  let cfg =
    Sup.config ~timeout_ms:10.0 ~clock ~incidents:inc ~live_watchdog:false
      ~sleep:(fun _ -> ())
      ()
  in
  let r = Sup.supervise cfg ~label:"slow" (fun ~attempt:_ -> Ok 42) in
  check string "overdue attempt becomes Timeout" "timeout"
    (E.code_name (code r));
  check bool "timeout incident logged" true (Inc.For_tests.count inc >= 1)

let test_supervise_no_deadline_is_transparent () =
  let cfg = Sup.config () in
  check bool "value passes through" true
    (Sup.supervise cfg ~label:"ok" (fun ~attempt:_ -> Ok "v") = Ok "v")

let test_map_result_isolates () =
  P.Pool.with_pool ~jobs:4 (fun pool ->
      let cfg = Sup.config () in
      let out =
        Sup.map_result ~pool cfg
          ~label:(Printf.sprintf "item-%d")
          (fun i ->
            if i mod 2 = 0 then E.fail ~layer:"test" "even items break"
            else Ok (10 * i))
          [ 1; 2; 3; 4; 5 ]
      in
      check int "every slot filled" 5 (List.length out);
      List.iteri
        (fun idx r ->
          let i = idx + 1 in
          match r with
          | Ok v ->
              check bool "odd survives" true (i mod 2 = 1);
              check int "value" (10 * i) v
          | Error _ -> check bool "even quarantined" true (i mod 2 = 0))
        out)

let test_stop_flag () =
  let stop = Sup.never_stop () in
  check bool "initially unset" false (Sup.stop_requested stop);
  Sup.For_tests.request_stop stop;
  check bool "set" true (Sup.stop_requested stop);
  check bool "no signal for programmatic stop" true (Sup.stop_signal stop = None)

let test_map_result_empty_stream () =
  (* zero items: no pool work, no incidents, just [] back *)
  let buf = Buffer.create 16 in
  let inc = Inc.For_tests.to_buffer buf in
  P.Pool.with_pool ~jobs:2 (fun pool ->
      let cfg = Sup.config ~incidents:inc ~live_watchdog:false () in
      let out =
        Sup.map_result ~pool cfg
          ~label:(Printf.sprintf "item-%d")
          (fun _ -> fail "f must not run on an empty stream")
          []
      in
      check (list reject) "empty in, empty out" [] out);
  check int "no incidents for empty stream" 0 (Inc.For_tests.count inc)

let test_deadline_exactly_equal_passes () =
  (* the deadline check is strict: elapsed > timeout. An attempt whose
     elapsed time equals the deadline exactly must still pass. The
     fake clock advances exactly 10 ms per reading, and supervise
     reads it twice (t0, then after f), so elapsed == 10.0 ms. *)
  let now = ref 0L in
  let clock () =
    now := Int64.add !now 10_000_000L;
    !now
  in
  let buf = Buffer.create 64 in
  let inc = Inc.For_tests.to_buffer buf in
  let cfg =
    Sup.config ~timeout_ms:10.0 ~clock ~incidents:inc ~live_watchdog:false
      ~sleep:(fun _ -> ())
      ()
  in
  let r = Sup.supervise cfg ~label:"on-time" (fun ~attempt:_ -> Ok 7) in
  check int "elapsed == deadline is not a timeout" 7 (get_ok r);
  check int "no timeout incident" 0 (Inc.For_tests.count inc)

let test_stop_before_first_chunk () =
  (* a stop flag raised before any work: both executors must return an
     Interrupted outcome with completed = 0, before running an item (and
     the fleet before forking a worker) *)
  let stop = Sup.never_stop () in
  Sup.For_tests.request_stop stop;
  let w =
    {
      P.Workload.kind = "toy";
      digest = "stop-before-first-chunk";
      labels = Array.init 4 (Printf.sprintf "item-%d");
      run = (fun _ -> fail "no item may run");
    }
  in
  (match P.Workload.run_local (Sup.session ~stop ()) w with
  | P.Workload.Interrupted { completed; total } ->
      check int "no items computed" 0 completed;
      check int "total still reported" 4 total
  | _ -> fail "expected run_local to be interrupted before the first chunk");
  let cfg = get_ok (P.Fleet.config ~workers:2 ~stop ()) in
  match P.Workload.run_fleet cfg ~shards:2 w with
  | P.Workload.Interrupted { completed; total } ->
      check int "no shards computed" 0 completed;
      check int "total shards reported" 2 total
  | _ -> fail "expected run_fleet to be interrupted before the first shard"

let test_pool_item_failure_context () =
  (* a Pool.Item_failure escaping the supervised function must surface
     the failing item index and its backtrace in the typed error *)
  let cfg = Sup.config ~live_watchdog:false () in
  let r =
    Sup.supervise cfg ~label:"nested-pool" (fun ~attempt:_ ->
        raise
          (P.Pool.Item_failure
             { index = 3; exn = Failure "boom"; backtrace = "frame0\nframe1" }))
  in
  match r with
  | Ok _ -> fail "expected the Item_failure to become an Error"
  | Error e ->
      check string "failing item index" "3"
        (List.assoc "pool-item" e.E.context);
      check string "item backtrace carried" "frame0\nframe1"
        (List.assoc "item-backtrace" e.E.context)

let test_checkpoint_dir_fsync () =
  (* durability: save must fsync the containing directory after the
     rename, or a crash can lose the directory entry *)
  let path = tmp_path ".ckpt" in
  let before = !Ckpt.For_tests.dir_fsyncs in
  get_ok (Ckpt.save ~path ~config_digest:"fsync-test" [ 42 ]);
  check bool "directory fsynced after rename" true
    (!Ckpt.For_tests.dir_fsyncs > before);
  let payload : int list = get_ok (Ckpt.load ~path ~config_digest:"fsync-test") in
  check (list int) "payload survives" [ 42 ] payload;
  Ckpt.remove path

let test_incident_rotation () =
  (* a file sink caps its size: crossing max_bytes rotates the live
     file to path ^ ".1" so disk use stays bounded *)
  let path = tmp_path ".jsonl" in
  let backup = path ^ ".1" in
  let t = get_ok (Inc.to_file ~max_bytes:400 path) in
  for i = 1 to 50 do
    Inc.record t Inc.Retry [ ("item", Printf.sprintf "cell-%d" i) ]
  done;
  Inc.close t;
  check bool "rotated backup exists" true (Sys.file_exists backup);
  check bool "live file stays under the cap" true
    ((Unix.stat path).Unix.st_size <= 400);
  check int "no record lost" 50 (Inc.For_tests.count t);
  Sys.remove path;
  Sys.remove backup

(* ------------------------------------------------------------------ *)
(* Campaign: interrupt + resume == uninterrupted, bit for bit          *)
(* ------------------------------------------------------------------ *)

let campaign_fixture () =
  let scenarios =
    match P.Campaign.For_tests.quick_scenarios () with
    | a :: b :: _ -> [ a; b ]
    | _ -> fail "expected at least two quick scenarios"
  in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  (scenarios, benchmarks)

let campaign_workload ~scenarios ~benchmarks =
  (P.Campaign.For_tests.job ~scenarios ~benchmarks ()).P.Workload.workload

let render_results ~scenarios ~benchmarks results =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let job = P.Campaign.For_tests.job ~scenarios ~benchmarks () in
  ignore (job.P.Workload.render ppf results);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_campaign_resume_bit_identical () =
  let scenarios, benchmarks = campaign_fixture () in
  let w = campaign_workload ~scenarios ~benchmarks in
  (* 1: uninterrupted reference run *)
  let reference =
    match P.Workload.run_local Sup.plain w with
    | P.Workload.Done (results, _) -> results
    | _ -> fail "uninterrupted run did not complete"
  in
  (* 2: interrupt after the first checkpoint flush *)
  let path = tmp_path ".ckpt" in
  let stop = Sup.never_stop () in
  let session = Sup.session ~checkpoint:path ~stop () in
  let interrupted =
    P.Workload.run_local session
      ~on_checkpoint:(fun ~completed ~total:_ ->
        if completed >= 1 then Sup.For_tests.request_stop stop)
      w
  in
  (match interrupted with
  | P.Workload.Interrupted { completed; total } ->
      check bool "made progress before the stop" true (completed >= 1);
      check bool "stopped before the end" true (completed < total)
  | _ -> fail "expected the run to be interrupted");
  check bool "checkpoint left behind" true (Ckpt.exists path);
  (* 3: resume to completion *)
  let resumed_session = Sup.session ~checkpoint:path ~resume:true () in
  let resumed =
    match P.Workload.run_local resumed_session w with
    | P.Workload.Done (results, _) -> results
    | _ -> fail "resumed run did not complete"
  in
  check bool "completed run removed its checkpoint" false (Ckpt.exists path);
  check bool "resumed items == uninterrupted items" true (resumed = reference);
  check string "rendered tables are bit-identical"
    (render_results ~scenarios ~benchmarks reference)
    (render_results ~scenarios ~benchmarks resumed)

let test_campaign_stale_checkpoint_rejected () =
  let scenarios, benchmarks = campaign_fixture () in
  let path = tmp_path ".ckpt" in
  let stop = Sup.never_stop () in
  let session = Sup.session ~checkpoint:path ~stop () in
  (match
     P.Workload.run_local session
       ~on_checkpoint:(fun ~completed:_ ~total:_ -> Sup.For_tests.request_stop stop)
       (campaign_workload ~scenarios ~benchmarks)
   with
  | P.Workload.Interrupted _ -> ()
  | _ -> fail "expected an interrupted run");
  (* resuming under a different scenario set must be refused *)
  let other_scenarios = P.Campaign.For_tests.quick_scenarios () in
  let resumed_session = Sup.session ~checkpoint:path ~resume:true () in
  (match
     P.Workload.run_local resumed_session
       (campaign_workload ~scenarios:other_scenarios ~benchmarks)
   with
  | P.Workload.Rejected e ->
      check string "typed rejection" "stale-checkpoint" (E.code_name e.E.code)
  | _ -> fail "expected the stale checkpoint to be rejected");
  Ckpt.remove path

let test_older_payload_format_refused () =
  (* A checkpoint written before the campaign became a workload carries
     the same configuration digest but another payload type. The
     executor folds a payload-format tag into its digest, so the file is
     refused as stale and never unmarshalled at the wrong type. *)
  let scenarios, benchmarks = campaign_fixture () in
  let older_digest =
    Ckpt.digest_of_config ~kind:"campaign-cells"
      (("budget=0.0600" :: "batch=1"
       :: List.map
            (fun (s : P.Campaign.scenario) ->
              s.P.Campaign.sname ^ "/" ^ s.P.Campaign.kind)
            scenarios)
      @ List.map (fun (b : P.Benchmarks.t) -> b.P.Benchmarks.short) benchmarks)
  in
  let path = tmp_path ".ckpt" in
  get_ok (Ckpt.save ~path ~config_digest:older_digest 42);
  (match
     P.Workload.run_local
       (Sup.session ~checkpoint:path ~resume:true ())
       (campaign_workload ~scenarios ~benchmarks)
   with
  | P.Workload.Rejected e ->
      check string "typed rejection" "stale-checkpoint" (E.code_name e.E.code)
  | _ -> fail "expected the older checkpoint to be refused");
  Ckpt.remove path

let test_campaign_verdict () =
  (* the gate both campaign CLIs share: an unrecovered cell fails at
     --max-residual 0 even though the BIST detected its fault *)
  let cell ~recovered_ok =
    {
      P.Campaign.r_benchmark = "mf";
      r_scenario = "stuck-lane";
      r_cell =
        Ok
          {
            P.Campaign.benchmark = "mf";
            scenario = "stuck-lane";
            detected = true;
            baseline = 0.9;
            faulted = 0.5;
            recovered = (if recovered_ok then 0.9 else 0.7);
            residual = (if recovered_ok then 0.0 else 0.2);
            recovered_ok;
          };
    }
  in
  let ok = cell ~recovered_ok:true and bad = cell ~recovered_ok:false in
  check bool "all-ok cells pass" true
    (Result.is_ok (P.Campaign.For_tests.verdict ~max_residual:0 [ ok; ok ]));
  check bool "one unrecovered cell fails" true
    (Result.is_error (P.Campaign.For_tests.verdict ~max_residual:0 [ ok; bad ]));
  check bool "--max-residual 1 forgives it" true
    (Result.is_ok (P.Campaign.For_tests.verdict ~max_residual:1 [ ok; bad ]))

(* ------------------------------------------------------------------ *)
(* Report sections: supervised == plain printer                        *)
(* ------------------------------------------------------------------ *)

let test_report_workload_matches_plain () =
  let names = [ "table1"; "table3"; "eq3" ] in
  let plain =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    List.iter
      (fun n ->
        match List.find_opt (fun (s, _, _) -> s = n) P.Report.For_tests.sections with
        | Some (_, _, f) -> f ppf
        | None -> fail ("fixture section missing: " ^ n))
      names;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let supervised =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let job = get_ok (P.Report.job names) in
    (match
       P.Pool.with_pool ~jobs:2 (fun pool ->
           P.Workload.run_job ppf (P.Workload.run_local ~pool Sup.plain) job)
     with
    | P.Workload.Done verdict ->
        check bool "nothing quarantined" true (verdict = Ok ())
    | _ -> fail "supervised render did not complete");
    Buffer.contents buf
  in
  check string "supervised output == plain output" plain supervised

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "supervision"
    [
      ( "retry",
        [
          QCheck_alcotest.to_alcotest qcheck_retry_deterministic;
          QCheck_alcotest.to_alcotest qcheck_retry_bounded;
          QCheck_alcotest.to_alcotest qcheck_retry_attempts_bounded;
          Alcotest.test_case "exhaustion error + schedule replay" `Quick
            test_retry_exhaustion_error;
          Alcotest.test_case "policy validation" `Quick
            test_retry_policy_validation;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "stale digest rejected" `Quick
            test_checkpoint_stale;
          Alcotest.test_case "corrupt and missing files" `Quick
            test_checkpoint_corrupt_and_missing;
          Alcotest.test_case "directory fsync after rename" `Quick
            test_checkpoint_dir_fsync;
        ] );
      ( "incidents",
        [
          Alcotest.test_case "JSONL shape" `Quick test_incident_jsonl;
          Alcotest.test_case "file sink rotation cap" `Quick
            test_incident_rotation;
        ] );
      ( "validate",
        [
          Alcotest.test_case "flag parsing" `Quick test_validate;
          Alcotest.test_case "environment variables" `Quick test_validate_env;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "quarantine after retries" `Quick
            test_supervise_quarantine;
          Alcotest.test_case "exceptions become typed errors" `Quick
            test_supervise_catches_exceptions;
          Alcotest.test_case "deadline enforcement (fake clock)" `Quick
            test_supervise_timeout_fake_clock;
          Alcotest.test_case "no deadline is transparent" `Quick
            test_supervise_no_deadline_is_transparent;
          Alcotest.test_case "map_result isolates failures" `Quick
            test_map_result_isolates;
          Alcotest.test_case "stop flag" `Quick test_stop_flag;
          Alcotest.test_case "empty stream is a no-op" `Quick
            test_map_result_empty_stream;
          Alcotest.test_case "deadline exactly equal passes" `Quick
            test_deadline_exactly_equal_passes;
          Alcotest.test_case "stop raised before the first chunk" `Quick
            test_stop_before_first_chunk;
          Alcotest.test_case "pool item failure context" `Quick
            test_pool_item_failure_context;
        ] );
      ( "resume",
        [
          Alcotest.test_case "campaign interrupt+resume is bit-identical"
            `Slow test_campaign_resume_bit_identical;
          Alcotest.test_case "stale campaign checkpoint rejected" `Slow
            test_campaign_stale_checkpoint_rejected;
          Alcotest.test_case "older payload format refused" `Quick
            test_older_payload_format_refused;
          Alcotest.test_case "campaign verdict gates unrecovered cells" `Quick
            test_campaign_verdict;
          Alcotest.test_case "supervised report == plain report" `Slow
            test_report_workload_matches_plain;
        ] );
    ]
