(* Fault injection and self-healing: the failpoint registry (spec
   grammar, seeded determinism, fail-once arming), injected faults at
   every site it guards — IPC short transfers and truncation, checkpoint
   fsync, incident-sink ENOSPC with degraded-mode recovery, admission —
   the serve engine's circuit breaker and dwell shedding, and the whole
   chaos soak: same seed, same incident transcript, byte for byte, with
   exactly one outcome per admitted request and survivors bit-identical
   to a fault-free twin. *)

module P = Promise
module Serve = P.Serve
module Fp = P.Failpoint
module Qb = P.Queue_bounded
module E = P.Error

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let fok = function Ok v -> v | Error e -> Alcotest.fail (E.to_string e)

let code_of = function
  | Ok _ -> Alcotest.fail "expected a typed error"
  | Error (e : E.t) -> e.E.code

let with_failpoints ?seed assignments f =
  fok (Fp.configure ?seed assignments);
  Fun.protect ~finally:Fp.reset f

(* ------------------------------------------------------------------ *)
(* The registry                                                         *)
(* ------------------------------------------------------------------ *)

let test_spec_grammar () =
  let parsed =
    fok
      (Fp.parse_spec
         "ipc.read:fail_prob=0.25, serve.flush:FAIL_ONCE,queue.admit:eintr, \
          machine.execute:delay_ns=100,checkpoint.save:off")
  in
  check int "five clauses" 5 (List.length parsed);
  check bool "prob parsed" true
    (List.assoc "ipc.read" parsed = Fp.Fail_prob 0.25);
  check bool "case-insensitive policy" true
    (List.assoc "serve.flush" parsed = Fp.Fail_once);
  check bool "delay parsed" true
    (List.assoc "machine.execute" parsed = Fp.Delay_ns 100L);
  check (Alcotest.list (Alcotest.pair string Alcotest.reject))
    "empty spec is no assignments" []
    (List.map (fun (s, _) -> (s, ())) (fok (Fp.parse_spec "  ")));
  List.iter
    (fun spec ->
      check bool (spec ^ " rejected") true
        (code_of (Fp.parse_spec spec) = E.Invalid_operand))
    [
      "nope.site:fail_once";
      "ipc.read";
      "ipc.read:explode";
      "ipc.read:fail_prob=1.5";
      "ipc.read:fail_prob=x";
      "ipc.read:delay_ns=-3";
    ]

let test_fail_once_and_stats () =
  with_failpoints [ ("serve.flush", Fp.Fail_once) ] (fun () ->
      check bool "armed" true (Fp.enabled ());
      check bool "first check fires" true (Fp.check "serve.flush" = Some Fp.Fail);
      check bool "self-disarms" true (Fp.check "serve.flush" = None);
      check bool "unarmed site never fires" true (Fp.check "ipc.read" = None);
      match Fp.stats () with
      | [ s ] ->
          check string "site" "serve.flush" s.Fp.site;
          check int "hits" 2 s.Fp.hits;
          check int "fires" 1 s.Fp.fires
      | l -> Alcotest.failf "expected one stat, got %d" (List.length l));
  check bool "reset disarms the fast path" false (Fp.enabled ());
  check bool "after reset nothing fires" true (Fp.check "serve.flush" = None)

let test_seeded_determinism () =
  let draw () =
    fok (Fp.configure ~seed:5 [ ("serve.flush", Fp.Fail_prob 0.5) ]);
    List.init 64 (fun _ -> Fp.check "serve.flush" <> None)
  in
  let a = draw () and b = draw () in
  check (Alcotest.list bool) "same seed, same fire schedule" a b;
  fok (Fp.configure ~seed:6 [ ("serve.flush", Fp.Fail_prob 0.5) ]);
  let c = List.init 64 (fun _ -> Fp.check "serve.flush" <> None) in
  Fp.reset ();
  check bool "different seed, different schedule" false (a = c);
  check bool "some fired" true (List.exists Fun.id a);
  check bool "some did not" true (List.exists not a)

(* ------------------------------------------------------------------ *)
(* IPC under injected short transfers and truncation (QCheck)           *)
(* ------------------------------------------------------------------ *)

let payload_arb =
  QCheck.(
    pair small_int (array_of_size (Gen.int_range 0 64) float))

let payload_eq (i1, (a1 : float array)) (i2, a2) =
  i1 = i2
  && Array.length a1 = Array.length a2
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a1 a2

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let prop_ipc_eintr_roundtrip =
  QCheck.Test.make ~count:40
    ~name:"ipc: frames survive injected EINTR one-byte transfers"
    payload_arb
    (fun v ->
      fok
        (Fp.configure ~seed:(Hashtbl.hash v)
           [ ("ipc.read", Fp.Eintr); ("ipc.write", Fp.Eintr) ]);
      Fun.protect ~finally:Fp.reset (fun () ->
          with_pipe (fun r w ->
              match P.Ipc.write w v with
              | Error e -> QCheck.Test.fail_report (E.to_string e)
              | Ok () -> (
                  match P.Ipc.read r with
                  | Ok (Some got) -> payload_eq v got
                  | Ok None -> QCheck.Test.fail_report "unexpected EOF"
                  | Error e -> QCheck.Test.fail_report (E.to_string e)))))

let prop_ipc_truncation_is_typed =
  QCheck.Test.make ~count:60
    ~name:"ipc: injected peer death is intact, clean EOF, or a typed error"
    payload_arb
    (fun v ->
      fok
        (Fp.configure ~seed:(Hashtbl.hash v)
           [ ("ipc.read", Fp.Fail_prob 0.3) ]);
      Fun.protect ~finally:Fp.reset (fun () ->
          with_pipe (fun r w ->
              match P.Ipc.write w v with
              | Error e -> QCheck.Test.fail_report (E.to_string e)
              | Ok () -> (
                  (* every outcome is accounted for: the frame arrives
                     intact, the simulated peer death lands between
                     frames (clean EOF), or it lands mid-frame and the
                     error is typed — never a silently wrong value *)
                  match P.Ipc.read r with
                  | Ok (Some got) -> payload_eq v got
                  | Ok None -> true
                  | Error e -> e.E.code = E.Invalid_operand))))

let test_ipc_injected_write_failure () =
  with_failpoints [ ("ipc.write", Fp.Fail_once) ] (fun () ->
      with_pipe (fun _r w ->
          check bool "write fails typed" true
            (code_of (P.Ipc.write w (1, [| 2.0 |])) = E.Invalid_operand);
          check bool "registry disarmed, next frame flows" true
            (P.Ipc.write w (3, [| 4.0 |]) = Ok ())))

(* ------------------------------------------------------------------ *)
(* Incident sink degraded mode                                          *)
(* ------------------------------------------------------------------ *)

let test_incident_sink_degrades_and_recovers () =
  let path = Filename.temp_file "promise_sink" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let inc = fok (P.Incident.to_file path) in
      with_failpoints [ ("incident.write", Fp.Fail_once) ] (fun () ->
          P.Incident.record inc P.Incident.Chaos [ ("n", "1") ];
          check bool "sink degraded on injected ENOSPC" true
            (P.Incident.degraded inc);
          check int "one line dropped" 1 (P.Incident.dropped inc);
          P.Incident.record inc P.Incident.Chaos [ ("n", "2") ];
          check bool "recovered on the next good write" false
            (P.Incident.degraded inc));
      P.Incident.close inc;
      let ic = open_in path in
      let rec lines acc =
        match input_line ic with
        | l -> lines (l :: acc)
        | exception End_of_file ->
            close_in_noerr ic;
            List.rev acc
      in
      let all = lines [] in
      let has needle l =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length l && (String.sub l i n = needle || go (i + 1))
        in
        go 0
      in
      check int "marker + surviving line" 2 (List.length all);
      (match all with
      | [ marker; survivor ] ->
          check bool "recovery marker first" true
            (has "\"sink-degraded\"" marker && has "\"dropped\":\"1\"" marker);
          check bool "dropped line stays dropped, next line lands" true
            (has "\"n\":\"2\"" survivor)
      | _ -> Alcotest.fail "unexpected log shape");
      (* two records plus the recovery marker all draw sequence numbers *)
      check int "count tracks recorded, not persisted" 3
        (P.Incident.count inc))

(* ------------------------------------------------------------------ *)
(* Checkpoint fsync failure, admission failure                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_injected_fsync () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "promise_chaos_test.ckpt"
  in
  (try Sys.remove path with Sys_error _ -> ());
  let digest = P.Checkpoint.digest_of_config ~kind:"chaos-test" [ "a" ] in
  with_failpoints [ ("checkpoint.save", Fp.Fail_once) ] (fun () ->
      (match P.Checkpoint.save ~path ~config_digest:digest 42 with
      | Ok () -> Alcotest.fail "injected fsync failure must surface"
      | Error e -> check bool "typed" true (E.to_string e <> ""));
      check bool "no torn checkpoint left behind" false (Sys.file_exists path);
      fok (P.Checkpoint.save ~path ~config_digest:digest 42);
      check int "clean save round-trips" 42
        (fok (P.Checkpoint.load ~path ~config_digest:digest)));
  try Sys.remove path with Sys_error _ -> ()

let test_queue_injected_admission () =
  with_failpoints [ ("queue.admit", Fp.Fail_once) ] (fun () ->
      let q = fok (Qb.create ~capacity:4) in
      (match Qb.try_push q 1 with
      | Ok () -> Alcotest.fail "injected admission failure must reject"
      | Error e ->
          check bool "typed Capacity" true (e.E.code = E.Capacity);
          check bool "marked injected" true
            (List.assoc_opt "injected" e.E.context = Some "true"));
      fok (Qb.try_push q 2);
      check (Alcotest.option int) "peek sees the head without popping"
        (Some 2) (Qb.peek_opt q);
      check (Alcotest.option int) "pop still FIFO" (Some 2) (Qb.pop_opt q);
      check int "rejection accounted" 1 (Qb.stats q).Qb.rejected)

(* ------------------------------------------------------------------ *)
(* The self-healing engine: breaker and dwell shedding                  *)
(* ------------------------------------------------------------------ *)

let mf = lazy (P.Benchmarks.matched_filter ())
let quiet_model () = Serve.model_of_benchmark (Lazy.force mf)

let engine ?(queue = 16) ?(batch_max = 4) ?(flush_us = 1000)
    ?breaker_threshold ?breaker_cooldown_ms ?dwell_budget_us ?incidents ~clock
    model =
  let outs = ref [] in
  let eng =
    fok
      (Serve.create ~clock ?incidents ?breaker_threshold ?breaker_cooldown_ms
         ?dwell_budget_us ~queue ~batch_max ~flush_us
         ~respond:(fun o -> outs := o :: !outs)
         [ model ])
  in
  (eng, fun () -> List.rev !outs)

let test_breaker_trips_sheds_recovers () =
  let now = ref 0L in
  let buf = Buffer.create 512 in
  let incidents = P.Incident.to_buffer buf in
  let m = quiet_model () in
  let name = Serve.model_name m in
  let eng, outs =
    engine ~clock:(fun () -> !now) ~incidents ~batch_max:1
      ~breaker_threshold:2 ~breaker_cooldown_ms:1.0 m
  in
  let flush_one rid =
    fok (Serve.submit eng ~rid ~model:name);
    Serve.pump eng;
    Serve.flush_all eng
  in
  (* the blackout: primary AND the digital fallback twin fault, so the
     heal ladder cannot absorb it and consecutive failures accumulate *)
  fok (Fp.configure ~seed:1 [ ("machine.execute", Fp.Fail_prob 1.0) ]);
  flush_one 0;
  flush_one 1;
  (* two consecutive batch failures: the breaker is now open *)
  flush_one 2;
  (match List.filter (fun o -> o.Serve.o_rid = 2) (outs ()) with
  | [ o ] -> (
      match o.Serve.o_result with
      | Error e ->
          check bool "open breaker sheds with Overloaded" true
            (e.E.code = E.Overloaded);
          check bool "retry-after hint" true
            (List.mem_assoc "retry-after-ms" e.E.context)
      | Ok _ -> Alcotest.fail "request 2 must be shed")
  | _ -> Alcotest.fail "request 2 must get exactly one outcome");
  (* fault clears; past the cooldown the next flush is the half-open
     probe, it succeeds, and the breaker closes *)
  Fp.reset ();
  now := 5_000_000L;
  flush_one 3;
  (match List.filter (fun o -> o.Serve.o_rid = 3) (outs ()) with
  | [ o ] -> check bool "probe request served" true (Result.is_ok o.Serve.o_result)
  | _ -> Alcotest.fail "request 3 must get exactly one outcome");
  let s = Serve.stats eng in
  check bool "shed accounted" true (s.Serve.shed >= 1);
  let log = Buffer.contents buf in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length log
      && (String.sub log i n = needle || go (i + 1))
    in
    go 0
  in
  check bool "breaker open logged" true (has "\"state\":\"open\"");
  check bool "half-open probe logged" true (has "\"state\":\"half-open\"");
  check bool "breaker close logged" true (has "\"state\":\"closed\"")

let test_dwell_shedding () =
  let now = ref 0L in
  let m = quiet_model () in
  let name = Serve.model_name m in
  let eng, outs =
    engine ~clock:(fun () -> !now) ~batch_max:64 ~flush_us:1000
      ~dwell_budget_us:100 m
  in
  fok (Serve.submit eng ~rid:0 ~model:name);
  (* the engine stalls: the queue head ages past the 100 us budget *)
  now := 300_000L;
  (match Serve.submit eng ~rid:1 ~model:name with
  | Ok () -> Alcotest.fail "over-budget dwell must shed new arrivals"
  | Error e ->
      check bool "typed Overloaded" true (e.E.code = E.Overloaded);
      check bool "retry-after hint" true
        (List.mem_assoc "retry-after-ms" e.E.context));
  check int "shed accounted" 1 (Serve.stats eng).Serve.shed;
  (* the stalled head itself is still served once the engine resumes *)
  Serve.pump eng;
  Serve.flush_all eng;
  match outs () with
  | [ o ] ->
      check int "head survived the stall" 0 o.Serve.o_rid;
      check bool "served" true (Result.is_ok o.Serve.o_result)
  | os -> Alcotest.failf "expected one outcome, got %d" (List.length os)

(* ------------------------------------------------------------------ *)
(* The whole soak                                                       *)
(* ------------------------------------------------------------------ *)

let test_chaos_soak_invariants_and_determinism () =
  let dir = Filename.get_temp_dir_name () in
  let soak tag =
    let ip = Filename.concat dir ("promise_chaos_" ^ tag ^ ".jsonl") in
    let cp = ip ^ ".ckpt" in
    let r =
      fok
        (Serve.chaos_run ~seed:11 ~incident_path:ip ~checkpoint_path:cp
           ~model:quiet_model ())
    in
    (try Sys.remove ip with Sys_error _ -> ());
    (try Sys.remove cp with Sys_error _ -> ());
    r
  in
  let a = soak "a" in
  check int "exactly one outcome per admitted request" 0 a.Serve.c_lost;
  check int "no duplicate outcomes" 0 a.Serve.c_multi;
  check int "survivors bit-identical to the fault-free twin" 0
    a.Serve.c_survivor_mismatches;
  check bool "a real population survived" true (a.Serve.c_survivors_checked > 0);
  check int "every served request was checked against the twin"
    a.Serve.c_served a.Serve.c_survivors_checked;
  check bool "every admitted request resolved" true
    (a.Serve.c_served + a.Serve.c_timeouts + a.Serve.c_failed + a.Serve.c_shed
     >= a.Serve.c_admitted);
  check bool "the transient fault healed in place" true (a.Serve.c_healed >= 1);
  check bool "the bank death parked the model on the digital twin" true
    (a.Serve.c_fallback_batches >= 1);
  check bool "the blackout tripped the breaker" true
    (a.Serve.c_breaker_opens >= 1);
  check bool "the sink degraded and recovered" true
    (a.Serve.c_sink_degraded >= 1);
  check bool "ipc faults were typed, not fatal" true (a.Serve.c_ipc_faults > 0);
  check bool "checkpoint failures were typed, not fatal" true
    (a.Serve.c_checkpoint_failures > 0);
  let b = soak "b" in
  check string "same seed, byte-identical transcript" a.Serve.c_events
    b.Serve.c_events;
  check bool "transcript is non-trivial" true
    (String.length a.Serve.c_events > 500)

let () =
  Alcotest.run "chaos"
    [
      ( "failpoint",
        [
          Alcotest.test_case "spec grammar" `Quick test_spec_grammar;
          Alcotest.test_case "fail_once + stats" `Quick
            test_fail_once_and_stats;
          Alcotest.test_case "seeded determinism" `Quick
            test_seeded_determinism;
        ] );
      ( "ipc",
        [
          QCheck_alcotest.to_alcotest prop_ipc_eintr_roundtrip;
          QCheck_alcotest.to_alcotest prop_ipc_truncation_is_typed;
          Alcotest.test_case "injected write failure" `Quick
            test_ipc_injected_write_failure;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "incident sink degrades and recovers" `Quick
            test_incident_sink_degrades_and_recovers;
          Alcotest.test_case "checkpoint fsync failure" `Quick
            test_checkpoint_injected_fsync;
          Alcotest.test_case "injected admission failure" `Quick
            test_queue_injected_admission;
        ] );
      ( "self-heal",
        [
          Alcotest.test_case "breaker trips, sheds, recovers" `Quick
            test_breaker_trips_sheds_recovers;
          Alcotest.test_case "dwell shedding" `Quick test_dwell_shedding;
        ] );
      ( "soak",
        [
          Alcotest.test_case "invariants + determinism" `Quick
            test_chaos_soak_invariants_and_determinism;
        ] );
    ]
