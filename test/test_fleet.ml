(* Fleet execution: IPC framing, shard arithmetic, worker crash /
   restart / quarantine supervision, per-shard checkpoint resume, and
   the bit-identity of fleets that lost workers or were interrupted. *)

open Alcotest
module P = Promise
module E = P.Error
module Ipc = P.Ipc
module Fleet = P.Fleet
module Ckpt = P.Checkpoint
module Inc = P.Incident
module Sup = P.Supervisor

let get_ok = function
  | Ok v -> v
  | Error e -> fail ("unexpected error: " ^ E.to_string e)

let tmp_path suffix =
  let path = Filename.temp_file "promise-test" suffix in
  Sys.remove path;
  path

let tmp_dir () =
  let path = tmp_path ".fleet" in
  Unix.mkdir path 0o755;
  path

let no_sleep _ = ()

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let count_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

let fleet_config ?shard_timeout_ms ?liveness_timeout_ms ?heartbeat_ms
    ?max_restarts ?incidents ?checkpoint_dir ?resume ?chaos ?stop
    ?(workers = 2) () =
  get_ok
    (Fleet.config ~workers ?shard_timeout_ms ?liveness_timeout_ms
       ?heartbeat_ms ?max_restarts ?incidents ?checkpoint_dir ?resume ?chaos
       ?stop ~sleep:no_sleep ())

(* ------------------------------------------------------------------ *)
(* IPC framing                                                         *)
(* ------------------------------------------------------------------ *)

let test_ipc_roundtrip () =
  let r, w = Unix.pipe () in
  let v1 = (42, "hello", [ 1.5; 2.5 ]) in
  get_ok (Ipc.write w v1);
  get_ok (Ipc.write w ((0, "", []) : int * string * float list));
  (match (get_ok (Ipc.read r) : (int * string * float list) option) with
  | Some v -> check bool "first frame round-trips" true (v = v1)
  | None -> fail "unexpected EOF");
  (match (get_ok (Ipc.read r) : (int * string * float list) option) with
  | Some v -> check bool "second frame round-trips" true (v = (0, "", []))
  | None -> fail "unexpected EOF");
  Unix.close w;
  (match (get_ok (Ipc.read r) : (int * string * float list) option) with
  | None -> ()
  | Some _ -> fail "expected clean EOF after writer close");
  Unix.close r

let test_ipc_large_frame () =
  (* 1 MiB exceeds any pipe buffer, so the write needs a concurrently
     draining reader. A forked writer, not a domain: OCaml 5 forbids
     Unix.fork once any other domain has ever been spawned, and the
     fleet tests below must still be allowed to fork. *)
  let payload = Bytes.make (1024 * 1024) 'x' in
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      ignore (Ipc.write w payload);
      Unix._exit 0
  | pid -> (
      Unix.close w;
      (match (get_ok (Ipc.read r) : Bytes.t option) with
      | Some back ->
          check bool "1 MiB payload round-trips" true (back = payload)
      | None -> fail "unexpected EOF");
      Unix.close r;
      ignore (Unix.waitpid [] pid))

let test_ipc_truncated_frame () =
  let r, w = Unix.pipe () in
  (* a valid header announcing 100 bytes, then only 10 and EOF *)
  let junk = Bytes.create 18 in
  Bytes.blit_string "PIP1" 0 junk 0 4;
  Bytes.set_int32_be junk 4 100l;
  ignore (Unix.write w junk 0 18);
  Unix.close w;
  (match (Ipc.read r : (int option, E.t) result) with
  | Error e ->
      check string "typed error" "invalid-operand" (E.code_name e.E.code)
  | Ok _ -> fail "expected a mid-frame error");
  Unix.close r

let test_ipc_bad_magic () =
  let r, w = Unix.pipe () in
  ignore (Unix.write_substring w "XXXX\x00\x00\x00\x01z" 0 9);
  Unix.close w;
  (match (Ipc.read r : (int option, E.t) result) with
  | Error e ->
      check string "typed error" "invalid-operand" (E.code_name e.E.code)
  | Ok _ -> fail "expected a bad-magic error");
  Unix.close r

(* ------------------------------------------------------------------ *)
(* Shard arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let qcheck_ranges_partition =
  QCheck.Test.make
    ~name:"ranges is a contiguous balanced partition of 0..items-1"
    ~count:200
    QCheck.(pair (int_range 1 64) (int_bound 500))
    (fun (shards, items) ->
      let r = Fleet.ranges ~shards ~items in
      let lens = Array.to_list (Array.map snd r) in
      let total = List.fold_left ( + ) 0 lens in
      let contiguous =
        fst
          (Array.fold_left
             (fun (ok, next) (off, len) -> (ok && off = next, off + len))
             (true, 0) r)
      in
      let balanced =
        match lens with
        | [] -> true
        | hd :: _ ->
            List.fold_left max hd lens - List.fold_left min hd lens <= 1
      in
      total = items
      && contiguous && balanced
      && Array.length r = min shards items
      && List.for_all (fun l -> l > 0) lens)

let test_shard_seed () =
  check int "deterministic" (Fleet.For_tests.shard_seed ~seed:7 ~shard:3)
    (Fleet.For_tests.shard_seed ~seed:7 ~shard:3);
  check bool "shards decorrelated" true
    (Fleet.For_tests.shard_seed ~seed:7 ~shard:3 <> Fleet.For_tests.shard_seed ~seed:7 ~shard:4);
  check bool "seeds decorrelated" true
    (Fleet.For_tests.shard_seed ~seed:7 ~shard:3 <> Fleet.For_tests.shard_seed ~seed:8 ~shard:3);
  check bool "non-negative" true (Fleet.For_tests.shard_seed ~seed:0 ~shard:0 >= 0)

let test_config_validation () =
  let bad = function
    | Error (e : E.t) ->
        check string "invalid-operand" "invalid-operand" (E.code_name e.E.code)
    | Ok _ -> fail "expected Error"
  in
  bad (Fleet.config ~workers:0 ());
  bad (Fleet.config ~workers:65 ());
  bad (Fleet.config ~heartbeat_ms:0.0 ());
  bad (Fleet.config ~max_restarts:(-1) ());
  bad (Fleet.config ~shard_timeout_ms:(-5.0) ());
  bad (Fleet.config ~liveness_timeout_ms:0.0 ())

(* ------------------------------------------------------------------ *)
(* Fleet runs                                                          *)
(* ------------------------------------------------------------------ *)

let expect_done = function
  | Fleet.Fleet_done (slots, summary) -> (slots, summary)
  | Fleet.Fleet_interrupted _ -> fail "unexpected interruption"
  | Fleet.Fleet_rejected e -> fail ("rejected: " ^ E.to_string e)

let test_fleet_basic () =
  let cfg = fleet_config ~workers:3 () in
  let outcome =
    Fleet.run cfg ~digest:"basic" ~shards:7 ~f:(fun ~shard ->
        Ok (shard * shard))
  in
  let slots, summary = expect_done outcome in
  check int "seven slots" 7 (Array.length slots);
  Array.iteri
    (fun i slot -> check int "shard-major result" (i * i) (get_ok slot))
    slots;
  check int "summary shards" 7 summary.Fleet.shards;
  check int "summary workers" 3 summary.Fleet.workers;
  check int "no restarts" 0 summary.Fleet.restarts;
  check int "nothing resumed" 0 summary.Fleet.resumed;
  check int "nothing quarantined" 0 summary.Fleet.quarantined

let test_fleet_single_shard_more_workers () =
  (* workers clamp to the pending shard count *)
  let cfg = fleet_config ~workers:4 () in
  let slots, summary =
    expect_done
      (Fleet.run cfg ~digest:"clamp" ~shards:1 ~f:(fun ~shard -> Ok shard))
  in
  check int "one slot" 1 (Array.length slots);
  check int "workers clamped" 1 summary.Fleet.workers

let test_fleet_rejects_zero_shards () =
  let cfg = fleet_config () in
  match Fleet.run cfg ~digest:"zero" ~shards:0 ~f:(fun ~shard -> Ok shard) with
  | Fleet.Fleet_rejected e ->
      check string "invalid-operand" "invalid-operand" (E.code_name e.E.code)
  | _ -> fail "expected rejection"

(* A shard function that SIGKILLs its own worker on the first attempt
   (marker file absent), then succeeds on the retry. This is the
   kill-a-worker-mid-run ≡ clean-run property: the parent must detect
   the death, respawn, re-assign, and aggregate identically. *)
let self_kill_once ~marker ~shard =
  if shard = 2 && not (Sys.file_exists marker) then begin
    let oc = open_out marker in
    close_out oc;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  end;
  Ok (shard * 10)

let test_fleet_worker_crash_restart () =
  let marker = tmp_path ".marker" in
  let buf = Buffer.create 256 in
  let inc = Inc.For_tests.to_buffer buf in
  let cfg = fleet_config ~workers:2 ~incidents:inc () in
  let slots, summary =
    expect_done
      (Fleet.run cfg ~digest:"crash" ~shards:5
         ~f:(fun ~shard -> self_kill_once ~marker ~shard))
  in
  Array.iteri
    (fun i slot ->
      check int "identical to a clean run" (i * 10) (get_ok slot))
    slots;
  check bool "the death was observed" true (summary.Fleet.restarts >= 1);
  check int "no quarantine" 0 summary.Fleet.quarantined;
  check bool "shard 2 consumed an extra attempt" true
    (summary.Fleet.timings.(2).Fleet.t_attempts >= 2);
  check bool "worker-death incident" true
    (contains ~needle:"worker-death" (Buffer.contents buf));
  Sys.remove marker

let test_fleet_quarantine () =
  let buf = Buffer.create 256 in
  let inc = Inc.For_tests.to_buffer buf in
  let cfg = fleet_config ~workers:2 ~max_restarts:1 ~incidents:inc () in
  let slots, summary =
    expect_done
      (Fleet.run cfg ~digest:"quarantine" ~shards:3 ~f:(fun ~shard ->
           if shard = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
           Ok shard))
  in
  check int "shard 0 fine" 0 (get_ok slots.(0));
  check int "shard 2 fine" 2 (get_ok slots.(2));
  (match slots.(1) with
  | Error e ->
      check string "typed quarantine" "retry-exhausted" (E.code_name e.E.code)
  | Ok _ -> fail "expected shard 1 quarantined");
  check int "one quarantined" 1 summary.Fleet.quarantined;
  check bool "restarts consumed" true (summary.Fleet.restarts >= 2)

let test_fleet_shard_deadline () =
  let cfg =
    fleet_config ~workers:1 ~max_restarts:0 ~shard_timeout_ms:300.0
      ~heartbeat_ms:20.0 ()
  in
  let slots, summary =
    expect_done
      (Fleet.run cfg ~digest:"deadline" ~shards:2 ~f:(fun ~shard ->
           if shard = 0 then
             while true do
               Unix.sleepf 0.05
             done;
           Ok shard))
  in
  (match slots.(0) with
  | Error e ->
      check string "overdue shard quarantined" "retry-exhausted"
        (E.code_name e.E.code)
  | Ok _ -> fail "expected the wedged shard to be killed");
  check int "sibling survives" 1 (get_ok slots.(1));
  check int "one quarantined" 1 summary.Fleet.quarantined

let test_fleet_liveness () =
  (* SIGSTOP freezes the whole worker, heartbeat domain included: the
     liveness watchdog must SIGKILL it (SIGKILL works on stopped
     processes) and quarantine the shard *)
  let cfg =
    fleet_config ~workers:1 ~max_restarts:0 ~liveness_timeout_ms:400.0
      ~heartbeat_ms:20.0 ()
  in
  let slots, _summary =
    expect_done
      (Fleet.run cfg ~digest:"liveness" ~shards:2 ~f:(fun ~shard ->
           if shard = 0 then begin
             Unix.kill (Unix.getpid ()) Sys.sigstop;
             (* unreachable until SIGKILL *)
             Unix.sleepf 60.0
           end;
           Ok shard))
  in
  (match slots.(0) with
  | Error e ->
      check string "wedged worker quarantined" "retry-exhausted"
        (E.code_name e.E.code)
  | Ok _ -> fail "expected the stopped worker to be killed");
  check int "sibling survives" 1 (get_ok slots.(1))

(* ------------------------------------------------------------------ *)
(* Checkpoints and resume                                              *)
(* ------------------------------------------------------------------ *)

let test_fleet_checkpoint_resume () =
  let dir = tmp_dir () in
  let cfg =
    fleet_config ~workers:2 ~max_restarts:0 ~checkpoint_dir:dir ()
  in
  (* first run: shard 3 always dies -> quarantined; the other shards
     complete and persist their checkpoints (kept, because a slot is
     Error) *)
  let slots, _ =
    expect_done
      (Fleet.run cfg ~digest:"resume" ~shards:4 ~f:(fun ~shard ->
           if shard = 3 then Unix.kill (Unix.getpid ()) Sys.sigkill;
           Ok (shard + 100)))
  in
  check bool "shard 3 quarantined" true (Result.is_error slots.(3));
  check bool "successful shards checkpointed" true
    (Sys.file_exists (Filename.concat dir "shard-0000.ckpt"));
  (* second run, resume: only shard 3 is computed (prove it by failing
     loudly if any other shard executes), and now it succeeds *)
  let cfg2 =
    fleet_config ~workers:2 ~checkpoint_dir:dir ~resume:true ()
  in
  let slots2, summary2 =
    expect_done
      (Fleet.run cfg2 ~digest:"resume" ~shards:4 ~f:(fun ~shard ->
           if shard <> 3 then
             E.fail ~layer:"test" "resumed shard must not recompute"
           else Ok (shard + 100)))
  in
  Array.iteri
    (fun i slot ->
      check int "aggregate identical to a clean run" (i + 100) (get_ok slot))
    slots2;
  check int "three shards resumed" 3 summary2.Fleet.resumed;
  check bool "resumed shard marked" true
    summary2.Fleet.timings.(0).Fleet.t_resumed;
  check bool "computed shard not marked" true
    (not summary2.Fleet.timings.(3).Fleet.t_resumed);
  (* a fully-Ok fleet removes its checkpoints *)
  check bool "checkpoints removed after success" true
    (not (Sys.file_exists (Filename.concat dir "shard-0000.ckpt")));
  Unix.rmdir dir

let test_fleet_stale_digest_rejected () =
  let dir = tmp_dir () in
  let cfg = fleet_config ~workers:1 ~checkpoint_dir:dir () in
  let _ =
    expect_done
      (Fleet.run cfg ~digest:"digest-A" ~shards:2 ~f:(fun ~shard ->
           if shard = 1 then E.fail ~layer:"test" "keep checkpoints"
           else Ok shard))
  in
  let cfg2 = fleet_config ~workers:1 ~checkpoint_dir:dir ~resume:true () in
  (match
     Fleet.run cfg2 ~digest:"digest-B" ~shards:2 ~f:(fun ~shard -> Ok shard)
   with
  | Fleet.Fleet_rejected e ->
      check string "stale checkpoint rejected" "stale-checkpoint"
        (E.code_name e.E.code)
  | _ -> fail "expected rejection");
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  Unix.rmdir dir

let test_fleet_interrupt_and_resume () =
  let dir = tmp_dir () in
  let stop = Sup.never_stop () in
  let cfg = fleet_config ~workers:1 ~checkpoint_dir:dir ~stop () in
  (* stop after the first completed shard: a single worker processes
     shards one at a time, so at least one remains *)
  let outcome =
    Fleet.run
      ~on_shard_done:(fun ~shard:_ ~completed ~total:_ ->
        if completed = 1 then Sup.For_tests.request_stop stop)
      cfg ~digest:"interrupt" ~shards:3
      ~f:(fun ~shard -> Ok (shard * 7))
  in
  (match outcome with
  | Fleet.Fleet_interrupted { completed; total } ->
      check int "three total" 3 total;
      check bool "not all done" true (completed < 3);
      check bool "some progress" true (completed >= 1)
  | _ -> fail "expected interruption");
  let cfg2 = fleet_config ~workers:1 ~checkpoint_dir:dir ~resume:true () in
  let slots, summary =
    expect_done
      (Fleet.run cfg2 ~digest:"interrupt" ~shards:3 ~f:(fun ~shard ->
           Ok (shard * 7)))
  in
  Array.iteri
    (fun i slot -> check int "identical to a clean run" (i * 7) (get_ok slot))
    slots;
  check bool "resumed the interrupted progress" true
    (summary.Fleet.resumed >= 1);
  Unix.rmdir dir

let test_fleet_error_slot_keeps_checkpoints () =
  (* an Error returned by f (no worker death involved) must also keep
     the siblings' checkpoints for a later resume *)
  let dir = tmp_dir () in
  let cfg = fleet_config ~workers:2 ~checkpoint_dir:dir () in
  let _ =
    expect_done
      (Fleet.run cfg ~digest:"full" ~shards:3 ~f:(fun ~shard ->
           if shard = 0 then E.fail ~layer:"test" "keep checkpoints"
           else Ok shard))
  in
  check bool "siblings kept their checkpoints" true
    (Sys.file_exists (Filename.concat dir "shard-0001.ckpt"));
  (* resume: only shard 0 recomputes; success removes everything *)
  let cfg2 = fleet_config ~workers:2 ~checkpoint_dir:dir ~resume:true () in
  let slots, summary =
    expect_done
      (Fleet.run cfg2 ~digest:"full" ~shards:3 ~f:(fun ~shard ->
           if shard <> 0 then
             E.fail ~layer:"test" "resumed shard must not recompute"
           else Ok shard))
  in
  Array.iteri (fun i slot -> check int "slot" i (get_ok slot)) slots;
  check int "two resumed" 2 summary.Fleet.resumed;
  check int "checkpoints removed" 0 (Array.length (Sys.readdir dir));
  Unix.rmdir dir

let test_fleet_all_resumed_no_fork () =
  (* when every shard loads from a checkpoint the fleet must not run
     [f] at all and still report the full result *)
  let dir = tmp_dir () in
  let digest = "everything" in
  let shards = 3 in
  for s = 0 to shards - 1 do
    get_ok
      (Ckpt.save
         ~path:(Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" s))
         ~config_digest:
           (Ckpt.digest_of_config ~kind:"fleet-shard"
              [ digest; string_of_int shards; string_of_int s ])
         (s * 11))
  done;
  let cfg = fleet_config ~workers:2 ~checkpoint_dir:dir ~resume:true () in
  let slots, summary =
    expect_done
      (Fleet.run cfg ~digest ~shards ~f:(fun ~shard:_ ->
           (E.fail ~layer:"test" "nothing may execute" : (int, E.t) result)))
  in
  Array.iteri
    (fun i slot -> check int "loaded result" (i * 11) (get_ok slot))
    slots;
  check int "all resumed" shards summary.Fleet.resumed;
  check int "checkpoints removed" 0 (Array.length (Sys.readdir dir));
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let test_fleet_chaos_kill_one () =
  let buf = Buffer.create 256 in
  let inc = Inc.For_tests.to_buffer buf in
  let cfg =
    fleet_config ~workers:2 ~chaos:Fleet.Kill_one ~incidents:inc ()
  in
  let slots, summary =
    expect_done
      (Fleet.run cfg ~digest:"chaos" ~shards:6 ~f:(fun ~shard ->
           (* slow enough that the chaos monkey finds a busy worker *)
           Unix.sleepf 0.05;
           Ok (shard + 1)))
  in
  Array.iteri
    (fun i slot ->
      check int "output identical despite the kill" (i + 1) (get_ok slot))
    slots;
  check int "nothing quarantined" 0 summary.Fleet.quarantined;
  check int "exactly one chaos kill" 1
    (count_substring ~needle:"\"kind\":\"chaos\"" (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Campaign over a fleet ≡ the in-process campaign                     *)
(* ------------------------------------------------------------------ *)

let expect_items = function
  | P.Workload.Done (results, _) -> results
  | _ -> fail "expected the workload to complete"

let test_campaign_fleet_matches_plain () =
  let scenarios = [ List.hd (P.Campaign.For_tests.quick_scenarios ()) ] in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  let w = (P.Campaign.For_tests.job ~scenarios ~benchmarks ()).P.Workload.workload in
  let plain = expect_items (P.Workload.run_local Sup.plain w) in
  let cfg = fleet_config ~workers:2 () in
  match P.Workload.run_fleet cfg ~shards:2 w with
  | P.Workload.Done (results, Some summary) ->
      check bool "items identical to the in-process path" true
        (results = plain);
      check int "no quarantine" 0 summary.Fleet.quarantined
  | _ -> fail "expected completion"

(* Chaos kill-one at batch 8: a fleet that loses a worker mid-run must
   produce items byte-identical to the uninterrupted in-process batched
   campaign (the shard checkpoint digest folds the batch width in, so
   the restarted worker re-executes at the same width). *)
let test_campaign_fleet_batch_chaos () =
  let scenarios = [ List.hd (P.Campaign.For_tests.quick_scenarios ()) ] in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  let w =
    (P.Campaign.For_tests.job ~batch:8 ~scenarios ~benchmarks ()).P.Workload.workload
  in
  let plain = expect_items (P.Workload.run_local Sup.plain w) in
  let buf = Buffer.create 256 in
  let inc = Inc.For_tests.to_buffer buf in
  let cfg =
    fleet_config ~workers:2 ~chaos:Fleet.Kill_one ~incidents:inc ()
  in
  match P.Workload.run_fleet cfg ~shards:2 w with
  | P.Workload.Done (results, Some summary) ->
      check bool "batched items identical despite the kill" true
        (results = plain);
      check int "nothing quarantined" 0 summary.Fleet.quarantined;
      check int "exactly one chaos kill" 1
        (count_substring ~needle:"\"kind\":\"chaos\"" (Buffer.contents buf))
  | _ -> fail "expected completion"

(* A checkpoint written at one batch width must be a stale checkpoint
   at another: the campaign folds the width into the config digest. *)
let test_campaign_digest_includes_batch () =
  let scenarios = [ List.hd (P.Campaign.For_tests.quick_scenarios ()) ] in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  let digest ?batch () =
    (P.Campaign.For_tests.job ?batch ~scenarios ~benchmarks ()).P.Workload.workload
      .P.Workload.digest
  in
  let d1 = digest ~batch:1 () in
  let d8 = digest ~batch:8 () in
  check bool "batch 1 and 8 digests differ" true (d1 <> d8);
  check string "batch defaults to 1" d1 (digest ())

(* ------------------------------------------------------------------ *)
(* The executors agree on a toy workload                               *)
(* ------------------------------------------------------------------ *)

(* Item [k] raises; every executor must return the same array with the
   Error only at [k]. Runs last: the jobs-2 pool spawns domains, after
   which OCaml 5 forbids the fork the fleet needs. *)
let test_executors_agree () =
  let n = 7 and k = 4 in
  let w =
    {
      P.Workload.kind = "toy";
      digest = "executors-agree";
      labels = Array.init n (Printf.sprintf "item-%d");
      run = (fun i -> if i = k then failwith "boom" else i * i);
    }
  in
  (* errors compared by code, message and item: a backtrace, when
     recorded, differs between a forked worker and a domain *)
  let shape results =
    Array.map
      (Result.map_error (fun (e : E.t) ->
           (e.E.code, e.E.message, List.assoc_opt "item" e.E.context)))
      results
  in
  let fleet =
    shape (expect_items (P.Workload.run_fleet (fleet_config ~workers:2 ()) ~shards:3 w))
  in
  let local1 = shape (expect_items (P.Workload.run_local Sup.plain w)) in
  let local2 =
    P.Pool.with_pool ~jobs:2 (fun pool ->
        shape (expect_items (P.Workload.run_local ~pool Sup.plain w)))
  in
  Array.iteri
    (fun i r ->
      check bool (Printf.sprintf "item %d is an Error iff it raised" i)
        (i = k) (Result.is_error r))
    fleet;
  check bool "local jobs 1 == fleet" true (local1 = fleet);
  check bool "local jobs 2 == fleet" true (local2 = fleet)

let () =
  run "promise-fleet"
    [
      ( "ipc",
        [
          test_case "frame roundtrip and clean EOF" `Quick test_ipc_roundtrip;
          test_case "1 MiB frame crosses the pipe" `Quick test_ipc_large_frame;
          test_case "truncated frame is a typed error" `Quick
            test_ipc_truncated_frame;
          test_case "bad magic is a typed error" `Quick test_ipc_bad_magic;
        ] );
      ( "shards",
        [
          QCheck_alcotest.to_alcotest qcheck_ranges_partition;
          test_case "shard_seed splits deterministically" `Quick
            test_shard_seed;
          test_case "config validation" `Quick test_config_validation;
        ] );
      ( "fleet",
        [
          test_case "shard-major aggregation across workers" `Quick
            test_fleet_basic;
          test_case "workers clamp to shard count" `Quick
            test_fleet_single_shard_more_workers;
          test_case "zero shards rejected" `Quick
            test_fleet_rejects_zero_shards;
          test_case "kill -9 a worker mid-run = clean run" `Quick
            test_fleet_worker_crash_restart;
          test_case "repeatedly dying shard is quarantined" `Quick
            test_fleet_quarantine;
          test_case "overdue shard is killed and quarantined" `Quick
            test_fleet_shard_deadline;
          test_case "silent (stopped) worker is killed" `Quick
            test_fleet_liveness;
          test_case "chaos kill-one leaves output identical" `Quick
            test_fleet_chaos_kill_one;
        ] );
      ( "resume",
        [
          test_case "per-shard checkpoint resume" `Quick
            test_fleet_checkpoint_resume;
          test_case "stale digest rejects the run" `Quick
            test_fleet_stale_digest_rejected;
          test_case "interrupt via stop flag, then resume" `Quick
            test_fleet_interrupt_and_resume;
          test_case "an Error slot keeps sibling checkpoints" `Quick
            test_fleet_error_slot_keeps_checkpoints;
          test_case "fully-checkpointed fleet forks nothing" `Quick
            test_fleet_all_resumed_no_fork;
        ] );
      ( "campaign",
        [
          test_case "fleet campaign = in-process campaign" `Slow
            test_campaign_fleet_matches_plain;
          test_case "chaos kill-one at batch 8 = uninterrupted batch 8"
            `Slow test_campaign_fleet_batch_chaos;
          test_case "config digest folds the batch width in" `Quick
            test_campaign_digest_includes_batch;
        ] );
      ( "workload",
        [
          test_case "fleet, jobs 1 and jobs 2 agree item for item" `Quick
            test_executors_agree;
        ] );
    ]
