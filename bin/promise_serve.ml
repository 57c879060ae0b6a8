(* promise-serve: the batched inference daemon and its self-test load
   generator.

   Three mutually-exclusive entry points:

   --listen PATH     serve Ipc-framed requests on a Unix socket through
                     the admission-controlled coalescing engine
                     (Promise.Serve): bounded queue, flush at
                     --batch-max or --flush-us, per-request --deadline-ms
                     watchdog, per-bank pool affinity via --jobs.
   --probe PATH      client smoke: pipeline --requests requests for
                     --model on one connection and account the answers.
   --selftest-load   drive the engine in-process in Batched and Single
                     mode over bit-for-bit twin models, verify the
                     response streams are identical, and measure
                     requests/sec, p50/p95/p99 latency, queue depth and
                     the batch-size histogram (--bench BENCH_serve.json).
   --chaos           seeded chaos soak: drive the engine on a virtual
                     clock under a scheduled failure storm (failpoints
                     on IPC/checkpoint/incident/admission/flush, a bank
                     death mid-service, a dispatcher stall, a machine
                     blackout that trips the circuit breaker) and gate
                     on the soak invariants: exactly one outcome per
                     admitted request, no crash, survivors bit-identical
                     to a fault-free twin run (--events canonical
                     transcript for replay diffing).

   Usage: promise_serve (--listen P | --probe P | --selftest-load | --chaos)
            [--models A,B] [--model M] [--requests N] [--max-requests N]
            [--queue N] [--batch-max N] [--flush-us U] [--deadline-ms T]
            [--jobs J] [--load closed:N] [--seed S] [--noise SEED]
            [--failpoints SITE:POLICY,..]
            [--breaker-threshold N] [--dwell-budget-us U] [--events FILE]
            [--connect-timeout-ms T] [--incidents FILE] [--bench FILE] *)

module P = Promise
open Cmdliner

let ( let* ) = Result.bind

let () = Printexc.record_backtrace true

(* ------------------------------------------------------------------ *)
(* Model registry                                                       *)
(* ------------------------------------------------------------------ *)

let known_models =
  [
    ("matched_filter", P.Benchmarks.matched_filter);
    ("template_l1", P.Benchmarks.template_l1);
    ("template_l2", P.Benchmarks.template_l2);
    ("svm", P.Benchmarks.svm);
    ("knn_l1", P.Benchmarks.knn_l1);
    ("knn_l2", P.Benchmarks.knn_l2);
    ("pca", P.Benchmarks.pca);
    ("linreg", P.Benchmarks.linreg);
  ]

let model_names = String.concat ", " (List.map fst known_models)

let benchmark_of_name name =
  match List.assoc_opt name known_models with
  | Some mk -> Ok (mk ())
  | None ->
      Error
        (Printf.sprintf "unknown model %S (expected one of: %s)" name
           model_names)

let models_of_names ~noise_seed names =
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ as e -> e
      | Ok ms -> (
          match benchmark_of_name name with
          | Error _ as e -> e
          | Ok b -> Ok (P.Serve.model_of_benchmark ~name ~noise_seed b :: ms)))
    (Ok []) names
  |> Result.map List.rev

let load_conv =
  Arg.conv
    ( (fun s ->
        match String.split_on_char ':' s with
        | [ "closed"; n ] -> (
            match P.Validate.int_in_range ~what:"--load closed" ~min:1
                    ~max:4096 n
            with
            | Ok v -> Ok (P.Serve.Closed_loop v)
            | Error e -> Error (`Msg (P.Error.to_string e)))
        | _ -> Error (`Msg "--load accepts: closed:CONCURRENCY")),
      fun ppf (P.Serve.Closed_loop n) -> Format.fprintf ppf "closed:%d" n )

(* ------------------------------------------------------------------ *)
(* BENCH_serve.json                                                     *)
(* ------------------------------------------------------------------ *)

let report_json oc tag (r : P.Serve.load_report) =
  Printf.fprintf oc
    "  \"%s\": {\n\
    \    \"served\": %d,\n\
    \    \"rejected\": %d,\n\
    \    \"timeouts\": %d,\n\
    \    \"failures\": %d,\n\
    \    \"seconds\": %.6f,\n\
    \    \"requests_per_sec\": %.1f,\n\
    \    \"p50_ms\": %.3f,\n\
    \    \"p95_ms\": %.3f,\n\
    \    \"p99_ms\": %.3f,\n\
    \    \"mean_batch\": %.2f,\n\
    \    \"max_batch\": %.0f,\n\
    \    \"max_queue_depth\": %d,\n\
    \    \"batch_hist\": [%s],\n\
    \    \"digest\": \"%s\"\n\
    \  }"
    tag r.P.Serve.l_served r.P.Serve.l_rejected r.P.Serve.l_timeouts
    r.P.Serve.l_failures r.P.Serve.l_seconds r.P.Serve.l_rps r.P.Serve.l_p50_ms
    r.P.Serve.l_p95_ms r.P.Serve.l_p99_ms r.P.Serve.l_mean_batch
    r.P.Serve.l_max_batch
    r.P.Serve.l_max_queue_depth
    (String.concat ", "
       (List.map
          (fun (size, count) -> Printf.sprintf "[%.0f, %d]" size count)
          r.P.Serve.l_batch_hist))
    r.P.Serve.l_digest

let write_bench path ~model ~requests ~queue ~batch_max ~flush_us ~load
    ~noiseless ~identical (batched : P.Serve.load_report)
    (single : P.Serve.load_report) =
  let oc = open_out path in
  let speedup =
    if single.P.Serve.l_rps > 0.0 then
      batched.P.Serve.l_rps /. single.P.Serve.l_rps
    else 0.0
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"serve\",\n\
    \  \"model\": \"%s\",\n\
    \  \"requests\": %d,\n\
    \  \"queue\": %d,\n\
    \  \"batch_max\": %d,\n\
    \  \"flush_us\": %d,\n\
    \  \"load\": \"%s\",\n\
    \  \"noiseless\": %b,\n\
    \  \"identical_output\": %b,\n\
    \  \"speedup\": %.2f,\n\
    \  \"note\": \"noiseless serving models by default; noisy Monte-Carlo \
     batches (--noise) amortize less\",\n"
    model requests queue batch_max flush_us load noiseless identical speedup;
  report_json oc "batched" batched;
  Printf.fprintf oc ",\n";
  report_json oc "single" single;
  Printf.fprintf oc "\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let run_daemon ~listen ~models ~noise ~max_requests ~queue ~batch_max
    ~flush_us ~deadline_ms ~jobs ~breaker_threshold ~dwell_budget_us
    ~incidents_path =
  Cli.with_incidents incidents_path (fun incidents ->
      match models_of_names ~noise_seed:noise models with
      | Error msg -> `Error (false, msg)
      | Ok ms -> (
          let stop = P.Supervisor.install_stop_signals () in
          Format.eprintf "serve: listening on %s (models: %s)@." listen
            (String.concat ", " (List.map P.Serve.model_name ms));
          let go pool =
            P.Serve.daemon ~max_requests ~incidents ?pool ?deadline_ms
              ?breaker_threshold ?dwell_budget_us ~queue ~batch_max ~flush_us
              ~listen ~stop ms
          in
          let result =
            if jobs > 1 then
              P.Pool.with_pool ~jobs (fun pool -> go (Some pool))
            else go None
          in
          match result with
          | Error e -> `Error (false, P.Error.to_string e)
          | Ok summary ->
              Format.eprintf "serve: done — %d responses, %d batches@."
                summary.P.Serve.d_completed
                summary.P.Serve.d_stats.P.Serve.batches;
              if P.Supervisor.stop_requested stop then
                `Stopped (P.Supervisor.exit_code stop)
              else `Ok ()))

let run_probe ~path ~model ~requests ~connect_timeout_ms =
  match
    P.Serve.probe ~connect_timeout_ms ~requests ~path ~model ()
  with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok s ->
      Printf.printf "probe: sent=%d ok=%d rejected=%d\n" s.P.Serve.p_sent
        s.P.Serve.p_ok s.P.Serve.p_rejected;
      Format.eprintf "probe: max coalesced batch %d@." s.P.Serve.p_max_batch;
      if s.P.Serve.p_ok = 0 then `Error (false, "no request succeeded")
      else `Ok ()

let run_selftest ~model ~noise ~requests ~repeats ~queue ~batch_max ~flush_us
    ~deadline_ms ~jobs ~load ~incidents_path ~bench_path =
  Cli.with_incidents incidents_path (fun incidents ->
      match benchmark_of_name model with
      | Error msg -> `Error (false, msg)
      | Ok b -> (
          let thunk () =
            P.Serve.model_of_benchmark ~name:model ~noise_seed:noise b
          in
          let run_once mode =
            P.Serve.load_run ~jobs ~incidents ?deadline_ms ~mode ~queue
              ~batch_max ~flush_us ~requests ~load ~model:thunk ()
          in
          (* best-of-N per mode: throughput is compared at each mode's
             least-noisy repetition, and every repetition must produce
             the same digest — the identity contract has no variance.
             The modes alternate (batched, single, batched, ...), so a
             slow stretch of the host costs both modes repetitions
             instead of costing one mode all of its own. *)
          let keep (best : P.Serve.load_report) (r : P.Serve.load_report) =
            if not (String.equal r.P.Serve.l_digest best.P.Serve.l_digest)
            then
              P.Error.fail ~layer:"serve"
                "two repetitions of the same load disagree — the digest \
                 must not depend on timing"
            else Ok (if r.P.Serve.l_rps > best.P.Serve.l_rps then r else best)
          in
          let rec alternate k batched single =
            if k = 0 then Ok (batched, single)
            else
              let* batched =
                Result.bind (run_once P.Serve.Batched) (keep batched)
              in
              let* single = Result.bind (run_once P.Serve.Single) (keep single) in
              alternate (k - 1) batched single
          in
          let load_str =
            Format.asprintf "%a" (Arg.conv_printer load_conv) load
          in
          Printf.printf "serve selftest: model=%s requests=%d load=%s\n" model
            requests load_str;
          match
            let* batched = run_once P.Serve.Batched in
            let* single = run_once P.Serve.Single in
            alternate (repeats - 1) batched single
          with
          | Error e -> `Error (false, P.Error.to_string e)
          | Ok (batched, single) ->
              let print tag (r : P.Serve.load_report) =
                Printf.printf
                  "%s: served=%d rejected=%d timeouts=%d failures=%d\n"
                  tag r.P.Serve.l_served r.P.Serve.l_rejected
                  r.P.Serve.l_timeouts r.P.Serve.l_failures;
                Format.eprintf
                  "%s: %.1f req/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f \
                   ms, mean batch %.2f, max queue depth %d@."
                  tag r.P.Serve.l_rps r.P.Serve.l_p50_ms
                  r.P.Serve.l_p95_ms r.P.Serve.l_p99_ms
                  r.P.Serve.l_mean_batch r.P.Serve.l_max_queue_depth
              in
              print "batched" batched;
              print "single" single;
              let identical =
                String.equal batched.P.Serve.l_digest
                  single.P.Serve.l_digest
              in
              Printf.printf "identical_output=%b\n" identical;
              if single.P.Serve.l_rps > 0.0 then
                Format.eprintf "coalescing speedup: %.2fx@."
                  (batched.P.Serve.l_rps /. single.P.Serve.l_rps);
              Option.iter
                (fun p ->
                  write_bench p ~model ~requests ~queue ~batch_max
                    ~flush_us ~load:load_str
                    ~noiseless:(noise = None) ~identical batched single)
                bench_path;
              if not identical then
                `Error
                  ( false,
                    "batched and single response streams differ — the \
                     bit-identity contract is broken" )
              else `Ok ()))

(* ------------------------------------------------------------------ *)
(* Chaos soak                                                           *)
(* ------------------------------------------------------------------ *)

let run_chaos ~model ~noise ~requests ~seed ~incidents_path ~events_path =
  match benchmark_of_name model with
  | Error msg -> `Error (false, msg)
  | Ok b -> (
      let thunk () =
        P.Serve.model_of_benchmark ~name:model ~noise_seed:noise b
      in
      let incident_path =
        Option.value incidents_path ~default:"chaos_incidents.jsonl"
      in
      let checkpoint_path = incident_path ^ ".ckpt" in
      let requests = if requests = 0 then 240 else requests in
      Printf.printf "chaos: model=%s seed=%d requests=%d\n%!" model seed
        requests;
      match
        P.Serve.chaos_run ~seed ~requests ~incident_path ~checkpoint_path
          ~model:thunk ()
      with
      | Error e -> `Error (false, P.Error.to_string e)
      | Ok r ->
          (try Sys.remove checkpoint_path with Sys_error _ -> ());
          Printf.printf
            "chaos: admitted=%d served=%d timeouts=%d failed=%d shed=%d \
             rejected=%d\n"
            r.P.Serve.c_admitted r.P.Serve.c_served r.P.Serve.c_timeouts
            r.P.Serve.c_failed r.P.Serve.c_shed r.P.Serve.c_rejected;
          Printf.printf
            "chaos: healed=%d fallback_batches=%d breaker_opens=%d \
             sink_degraded=%d\n"
            r.P.Serve.c_healed r.P.Serve.c_fallback_batches
            r.P.Serve.c_breaker_opens r.P.Serve.c_sink_degraded;
          Printf.printf
            "chaos: lost=%d multi=%d survivors=%d mismatches=%d\n"
            r.P.Serve.c_lost r.P.Serve.c_multi r.P.Serve.c_survivors_checked
            r.P.Serve.c_survivor_mismatches;
          Format.eprintf
            "chaos: %d ipc faults (typed), %d injected checkpoint failures@."
            r.P.Serve.c_ipc_faults r.P.Serve.c_checkpoint_failures;
          Option.iter
            (fun p ->
              let oc = open_out p in
              output_string oc r.P.Serve.c_events;
              close_out oc)
            events_path;
          let violated =
            (if r.P.Serve.c_lost > 0 then [ "lost outcomes" ] else [])
            @ (if r.P.Serve.c_multi > 0 then [ "duplicate outcomes" ] else [])
            @
            if r.P.Serve.c_survivor_mismatches > 0 then
              [ "survivor bit-identity" ]
            else []
          in
          if violated <> [] then
            `Error
              (false, "chaos invariants violated: " ^ String.concat ", " violated)
          else begin
            Printf.printf "chaos: invariants hold\n";
            `Ok ()
          end)

(* --chaos installs its own failpoint schedule, which would silently
   replace a --failpoints spec: the combination is refused outright. *)
let arm_failpoints ~chaos ~seed failpoints =
  match failpoints with
  | None -> Ok ()
  | Some _ when chaos ->
      P.Error.fail ~layer:"cli" ~code:P.Error.Invalid_operand
        ~context:[ ("flag", "--failpoints") ]
        "--chaos arms its own failpoint schedule and cannot take --failpoints"
  | Some spec -> P.Failpoint.configure_spec ~seed spec

(* --bench writes the selftest's BENCH_serve.json; every other entry
   point would ignore it silently, so it is refused there too. *)
let check_bench ~selftest bench_path =
  match bench_path with
  | Some _ when not selftest ->
      P.Error.fail ~layer:"cli" ~code:P.Error.Invalid_operand
        ~context:[ ("flag", "--bench") ]
        "--bench writes the --selftest-load report and takes no other entry \
         point"
  | _ -> Ok ()

let run listen probe selftest chaos models model noise max_requests requests
    repeats queue batch_max flush_us deadline_ms jobs load seed
    breaker_threshold dwell_budget_us failpoints connect_timeout_ms
    incidents_path events_path bench_path =
  match
    let* () = P.check_env () in
    let* () = check_bench ~selftest bench_path in
    arm_failpoints ~chaos ~seed failpoints
  with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok () -> (
      match (listen, probe, selftest, chaos) with
      | Some listen, None, false, false ->
          run_daemon ~listen ~models ~noise ~max_requests ~queue ~batch_max
            ~flush_us ~deadline_ms ~jobs ~breaker_threshold ~dwell_budget_us
            ~incidents_path
      | None, Some path, false, false ->
          let requests = if requests = 0 then 8 else requests in
          run_probe ~path ~model ~requests ~connect_timeout_ms
      | None, None, true, false ->
          let requests = if requests = 0 then 512 else requests in
          run_selftest ~model ~noise ~requests ~repeats ~queue ~batch_max
            ~flush_us ~deadline_ms ~jobs ~load ~incidents_path ~bench_path
      | None, None, false, true ->
          run_chaos ~model ~noise ~requests ~seed ~incidents_path
            ~events_path
      | _ ->
          `Error
            ( false,
              "pick exactly one of --listen PATH, --probe PATH, \
               --selftest-load, --chaos" ))

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"PATH"
        ~doc:"Serve requests on the Unix-domain socket $(docv).")

let probe_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "probe" ] ~docv:"PATH"
        ~doc:
          "Connect to a daemon at $(docv) (retrying until \
           --connect-timeout-ms) and pipeline --requests requests.")

let selftest_arg =
  Arg.(
    value & flag
    & info [ "selftest-load" ]
        ~doc:
          "Drive the engine in-process in batched and single mode over twin \
           models, verify bit-identical response streams, and measure \
           throughput and latency percentiles.")

let models_arg =
  Arg.(
    value
    & opt (list string) [ "matched_filter" ]
    & info [ "models" ] ~docv:"NAMES"
        ~doc:
          (Printf.sprintf
             "Comma-separated models the daemon serves (known: %s)."
             model_names))

let model_arg =
  Arg.(
    value
    & opt string "matched_filter"
    & info [ "model" ] ~docv:"NAME"
        ~doc:"The model --probe and --selftest-load request.")

let noise_arg =
  Arg.(
    value
    & opt (some (Cli.validated_int ~what:"--noise" ~min:0 ~max:max_int)) None
    & info [ "noise" ] ~docv:"SEED"
        ~doc:
          "Seed the analog noise streams (Monte-Carlo serving). Default: \
           noiseless, deterministic models.")

let max_requests_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--max-requests" ~min:0 ~max:max_int) 0
    & info [ "max-requests" ] ~docv:"N"
        ~doc:
          "Daemon: exit after $(docv) responses (0 = serve until \
           SIGINT/SIGTERM). The drain still flushes pending batches.")

let requests_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--requests" ~min:0 ~max:10_000_000) 0
    & info [ "requests" ] ~docv:"N"
        ~doc:
          "Requests to issue (default: 8 for --probe, 512 for \
           --selftest-load).")

let repeats_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--repeats" ~min:1 ~max:100) 1
    & info [ "repeats" ] ~docv:"K"
        ~doc:
          "Selftest: run each mode $(docv) times and score its best \
           repetition — machine noise (GC pauses, frequency scaling) hits \
           at most one of them. Every repetition must produce the same \
           digest.")

let queue_arg =
  Arg.(
    value
    & opt
        (Cli.validated_int ~what:"--queue" ~min:1 ~max:1_048_576)
        256
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission-queue capacity; a full queue rejects with a typed \
           Capacity error.")

let batch_max_arg =
  Arg.(
    value
    & opt
        (Cli.validated_int ~what:"--batch-max" ~min:1 ~max:4096)
        64
    & info [ "batch-max" ] ~docv:"N"
        ~doc:"Flush a model's pending set at $(docv) coalesced decisions.")

let flush_us_arg =
  Arg.(
    value
    & opt
        (Cli.validated_int ~what:"--flush-us" ~min:1 ~max:10_000_000)
        2000
    & info [ "flush-us" ] ~docv:"U"
        ~doc:
          "Flush a pending set once its oldest request has waited $(docv) \
           microseconds.")

let deadline_arg =
  Arg.(
    value
    & opt (some (Cli.validated_float_ms ~what:"--deadline-ms")) None
    & info [ "deadline-ms" ] ~docv:"T"
        ~doc:
          "Per-request watchdog: a request undispatched $(docv) ms after \
           admission is answered with a typed Timeout. Off by default.")

let jobs_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--jobs" ~min:1 ~max:64) 1
    & info [ "jobs"; "j" ] ~docv:"J"
        ~doc:
          "Domain pool fanning multi-bank groups out bank-major \
           (bit-identical at any job count).")

let load_arg =
  Arg.(
    value
    & opt load_conv (P.Serve.Closed_loop 64)
    & info [ "load" ] ~docv:"SPEC"
        ~doc:
          "Selftest arrival process: $(b,closed:N) keeps N requests \
           outstanding.")

let seed_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--seed" ~min:0 ~max:max_int) 0
    & info [ "seed" ] ~docv:"S"
        ~doc:"Seed of the chaos soak and of the --failpoints draws.")

let connect_timeout_arg =
  Arg.(
    value
    & opt (Cli.validated_float_ms ~what:"--connect-timeout-ms") 10_000.0
    & info [ "connect-timeout-ms" ] ~docv:"T"
        ~doc:"--probe: keep retrying the connect for $(docv) ms.")

let chaos_arg =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Seeded chaos soak: drive the engine on a virtual clock under a \
           scheduled failure storm and gate on exactly-one-outcome, \
           no-crash and survivor bit-identity. Same --seed, same incident \
           transcript, byte for byte.")

let failpoints_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "failpoints" ] ~docv:"SPEC"
        ~doc:
          "Arm the fault-injection registry: comma-separated \
           $(i,site:policy) pairs, policies $(b,off), $(b,fail_once), \
           $(b,fail_prob=P), $(b,delay_ns=N), $(b,eintr). Draws are seeded \
           by --seed. Refused with --chaos, which arms its own schedule.")

let breaker_threshold_arg =
  Arg.(
    value
    & opt
        (some (Cli.validated_int ~what:"--breaker-threshold" ~min:1 ~max:10_000))
        None
    & info [ "breaker-threshold" ] ~docv:"N"
        ~doc:
          "Daemon: open a model's circuit breaker after $(docv) consecutive \
           batch failures (default 8).")

let dwell_budget_arg =
  Arg.(
    value
    & opt
        (some (Cli.validated_int ~what:"--dwell-budget-us" ~min:1 ~max:10_000_000))
        None
    & info [ "dwell-budget-us" ] ~docv:"U"
        ~doc:
          "Daemon: shed new submissions with a typed Overloaded error while \
           the queue head has waited more than $(docv) microseconds (off \
           by default).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Chaos: write the canonical incident transcript (wall-clock \
           stripped) to $(docv); two soaks with the same seed must produce \
           byte-identical files.")

let incidents_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "incidents" ] ~docv:"FILE"
        ~doc:
          "Append a JSONL incident log (admission rejections, watchdog \
           timeouts, dispatch failures) to $(docv).")

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"FILE"
        ~doc:
          "Selftest: write throughput/latency/batch-histogram JSON to \
           $(docv) (the BENCH_serve.json artifact). Refused with any other \
           entry point.")

let () =
  let info =
    Cmd.info "promise-serve" ~version:P.version
      ~doc:
        "batched inference serving: admission control, request coalescing, \
         deadline flush, per-request watchdogs, and a measuring self-test \
         load generator"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ listen_arg $ probe_arg $ selftest_arg $ chaos_arg
             $ models_arg
             $ model_arg $ noise_arg $ max_requests_arg $ requests_arg
             $ repeats_arg $ queue_arg $ batch_max_arg $ flush_us_arg
             $ deadline_arg
             $ jobs_arg $ load_arg $ seed_arg
             $ breaker_threshold_arg $ dwell_budget_arg $ failpoints_arg
             $ connect_timeout_arg $ incidents_arg $ events_arg $ bench_arg))))
