(* promise-fleet: the campaign / report workloads across a fleet of
   forked, crash-isolated worker processes.

   The fleet layer (Promise.Fleet) shards the workload, supervises the
   workers (heartbeat liveness, per-shard deadlines, restart with
   backoff after any death — including kill -9 — and quarantine when a
   shard keeps dying), and checkpoints every completed shard on its
   own, so a killed or preempted fleet resumes only the shards it was
   missing. Stdout carries exactly the table the single-process paths
   print — bit-identical through crashes and resume cycles — while
   progress, fleet statistics and resume hints go to stderr, and every
   supervision event can be logged as JSONL (--incidents).

   --chaos kill-one is the built-in self-test: SIGKILL one busy worker
   mid-run and let supervision prove the output does not change.

   Usage: promise_fleet (campaign|report [SECTION...])
            [--quick] [--shards N] [--workers M] [--batch N]
            [--checkpoint-dir DIR] [--resume] [--incidents FILE]
            [--timeout-ms T] [--liveness-ms L] [--heartbeat-ms H]
            [--max-restarts R] [--seed S] [--chaos kill-one]
            [--bench FILE] *)

module P = Promise
open Cmdliner

let () = Printexc.record_backtrace true

let chaos_conv =
  Arg.conv
    ( (fun s ->
        match s with
        | "kill-one" -> Ok P.Fleet.Kill_one
        | _ -> Error (`Msg "--chaos accepts only: kill-one")),
      fun ppf c ->
        Format.pp_print_string ppf
          (match c with P.Fleet.Kill_one -> "kill-one" | P.Fleet.No_chaos -> "none")
    )

(* BENCH_fleet.json: the multi-process sibling of BENCH_parallel.json —
   aggregate wall time plus the per-shard detail the summary carries. *)
let write_bench path ~workload ~quick (s : P.Fleet.summary) =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"fleet\",\n\
    \  \"workload\": \"%s\",\n\
    \  \"quick\": %b,\n\
    \  \"host_cores\": %d,\n\
    \  \"shards\": %d,\n\
    \  \"workers\": %d,\n\
    \  \"restarts\": %d,\n\
    \  \"resumed\": %d,\n\
    \  \"quarantined\": %d,\n\
    \  \"aggregate_ms\": %.1f,\n\
    \  \"per_shard\": [\n"
    workload quick
    (Domain.recommended_domain_count ())
    s.P.Fleet.shards s.P.Fleet.workers s.P.Fleet.restarts s.P.Fleet.resumed
    s.P.Fleet.quarantined s.P.Fleet.total_ms;
  Array.iteri
    (fun i (t : P.Fleet.shard_timing) ->
      Printf.fprintf oc
        "    {\"shard\": %d, \"ms\": %.1f, \"attempts\": %d, \"resumed\": %b}%s\n"
        t.P.Fleet.t_shard t.P.Fleet.t_ms t.P.Fleet.t_attempts
        t.P.Fleet.t_resumed
        (if i < Array.length s.P.Fleet.timings - 1 then "," else ""))
    s.P.Fleet.timings;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let eprint_summary workload (s : P.Fleet.summary) =
  Format.eprintf
    "fleet: %s done — %d shards / %d workers, %d restarts, %d resumed, %d \
     quarantined, %.0f ms@."
    workload s.P.Fleet.shards s.P.Fleet.workers s.P.Fleet.restarts
    s.P.Fleet.resumed s.P.Fleet.quarantined s.P.Fleet.total_ms

let resume_hint ~workload ~quick ~checkpoint_dir =
  Format.eprintf
    "interrupted; resume with: promise-fleet %s%s --checkpoint-dir %s \
     --resume@."
    workload
    (if quick then " --quick" else "")
    (Option.value checkpoint_dir ~default:"DIR")

let run workload_args quick shards workers batch seed timeout_ms liveness_ms
    heartbeat_ms max_restarts checkpoint_dir resume incidents_path chaos
    bench_path =
  match P.check_env () with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok () when resume && checkpoint_dir = None ->
      `Error (false, "--resume needs --checkpoint-dir DIR to resume from")
  | Ok () -> (
      let workload, section_names =
        match workload_args with
        | [] -> ("campaign", [])
        | w :: rest -> (w, rest)
      in
      if workload <> "campaign" && workload <> "report" then
        `Error
          ( false,
            Printf.sprintf "unknown workload %S (expected campaign or report)"
              workload )
      else if workload = "campaign" && section_names <> [] then
        `Error (false, "the campaign workload takes no section arguments")
      else begin
        let incidents_r =
          match incidents_path with
          | None -> Ok P.Incident.null
          | Some path -> P.Incident.to_file path
        in
        let backoff_r =
          P.Retry.policy ~max_attempts:16 ~base_delay_ms:50.0
            ~max_delay_ms:1000.0 ~seed ()
        in
        match (incidents_r, backoff_r) with
        | Error e, _ | _, Error e -> `Error (false, P.Error.to_string e)
        | Ok incidents, Ok restart_backoff -> (
            let stop = P.Supervisor.install_stop_signals () in
            let cfg_r =
              P.Fleet.config ~workers ?shard_timeout_ms:timeout_ms
                ?liveness_timeout_ms:liveness_ms ~heartbeat_ms ~max_restarts
                ~restart_backoff ~incidents ?checkpoint_dir ~resume ~chaos
                ~stop ()
            in
            match cfg_r with
            | Error e ->
                P.Incident.close incidents;
                `Error (false, P.Error.to_string e)
            | Ok cfg ->
                let on_shard_done ~shard ~completed ~total =
                  Format.eprintf "fleet: shard %d done (%d/%d)@." shard
                    completed total
                in
                let ppf = Format.std_formatter in
                let run w ~print =
                  match P.Workload.run_fleet ~on_shard_done cfg ~shards w with
                  | P.Workload.Interrupted _ ->
                      resume_hint ~workload ~quick ~checkpoint_dir;
                      `Interrupted
                  | P.Workload.Rejected e -> `Failed (P.Error.to_string e)
                  | P.Workload.Done (results, summary) -> (
                      Option.iter (eprint_summary workload) summary;
                      Option.iter
                        (fun p ->
                          Option.iter (write_bench p ~workload ~quick) summary)
                        bench_path;
                      match print results with
                      | Ok () -> `Ok
                      | Error msg -> `Failed msg)
                in
                let status =
                  if workload = "campaign" then begin
                    let scenarios =
                      if quick then P.Campaign.quick_scenarios ()
                      else P.Campaign.all_scenarios ()
                    in
                    let benchmarks = P.Campaign.fast_benchmarks () in
                    P.Campaign.print_header ppf ~quick ~scenarios ~benchmarks;
                    run
                      (P.Campaign.workload ~batch ~scenarios ~benchmarks ())
                      ~print:(fun results ->
                        let cells =
                          P.Campaign.assemble ~scenarios ~benchmarks results
                        in
                        P.Campaign.print ppf cells;
                        P.Campaign.verdict ~max_residual:0 cells)
                  end
                  else begin
                    let names =
                      match section_names with
                      | [] -> P.Report.quick_names ()
                      | names -> names
                    in
                    let known = P.Report.all_names () in
                    let unknown =
                      List.filter (fun n -> not (List.mem n known)) names
                    in
                    if unknown <> [] then
                      `Failed
                        ("unknown sections: " ^ String.concat ", " unknown)
                    else
                      run (P.Report.workload names) ~print:(fun results ->
                          match P.Report.print ppf names results with
                          | 0 -> Ok ()
                          | n -> Error (Printf.sprintf "%d sections quarantined" n))
                  end
                in
                Format.pp_print_flush ppf ();
                P.Incident.close incidents;
                (match status with
                | `Interrupted -> Stdlib.exit (P.Supervisor.exit_code stop)
                | `Failed msg -> `Error (false, msg)
                | `Ok -> `Ok ()))
      end)

let workload_arg =
  Arg.(
    value & pos_all string [ "campaign" ]
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "$(b,campaign), or $(b,report) followed by section names (default: \
           the quick sections).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Campaign: the five hard-fault scenarios only. Report: ignored \
           (select sections by name instead).")

let shards_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--shards" ~min:1 ~max:4096) 4
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Split the workload into at most $(docv) independent shards — the \
           unit of checkpointing, restart and quarantine.")

let workers_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--workers" ~min:1 ~max:64) 2
    & info [ "workers"; "j" ] ~docv:"M"
        ~doc:
          "Forked worker processes. The output is bit-identical at any \
           worker count.")

let batch_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--batch" ~min:1 ~max:4096)
        (P.Arch.Machine.default_batch ())
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Campaign: score $(docv) batched noise realizations per query \
           through the batch engine (default $(b,PROMISE_BATCH) or 1). The \
           batch width is part of every shard checkpoint digest, so a \
           resume at a different width is rejected, never mixed. Report: \
           ignored.")

let seed_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--seed" ~min:0 ~max:max_int) 0
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Seed of the restart-backoff jitter stream: reruns replay the \
           exact same waits.")

let timeout_arg =
  Arg.(
    value
    & opt (some (Cli.validated_float_ms ~what:"--timeout-ms")) None
    & info [ "timeout-ms" ] ~docv:"T"
        ~doc:
          "Per-shard deadline in milliseconds: an overdue shard's worker is \
           SIGKILLed, the shard re-queued with backoff, and finally \
           quarantined. Off by default.")

let liveness_arg =
  Arg.(
    value
    & opt (some (Cli.validated_float_ms ~what:"--liveness-ms")) None
    & info [ "liveness-ms" ] ~docv:"L"
        ~doc:
          "Max heartbeat silence before a worker is presumed wedged and \
           SIGKILLed. Off by default.")

let heartbeat_arg =
  Arg.(
    value
    & opt (Cli.validated_float_ms ~what:"--heartbeat-ms") 100.0
    & info [ "heartbeat-ms" ] ~docv:"H"
        ~doc:"Worker heartbeat period in milliseconds.")

let max_restarts_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--max-restarts" ~min:0 ~max:16) 2
    & info [ "max-restarts" ] ~docv:"R"
        ~doc:
          "Worker deaths a single shard may consume before it is \
           quarantined as a typed error (its siblings finish).")

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Persist every completed shard as its own checkpoint in $(docv); \
           a fully-successful run removes them.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Load completed shards from --checkpoint-dir DIR and run only the \
           missing ones. Checkpoints from a different configuration are \
           rejected, not silently resumed.")

let incidents_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "incidents" ] ~docv:"FILE"
        ~doc:
          "Append a JSONL incident log (worker spawns/deaths, shard \
           completions, timeouts, retries, quarantines, checkpoint writes, \
           chaos kills) to $(docv).")

let chaos_arg =
  Arg.(
    value
    & opt chaos_conv P.Fleet.No_chaos
    & info [ "chaos" ] ~docv:"MODE"
        ~doc:
          "Self-test: $(b,kill-one) SIGKILLs one busy worker mid-run; \
           supervision must deliver the identical output anyway.")

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"FILE"
        ~doc:
          "Write per-shard and aggregate fleet timings as JSON to $(docv) \
           (the BENCH_fleet.json artifact).")

let () =
  let info =
    Cmd.info "promise-fleet" ~version:P.version
      ~doc:
        "campaign / report workloads across forked crash-isolated workers: \
         supervised, restarted, quarantined, checkpointed, resumable"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ workload_arg $ quick_arg $ shards_arg $ workers_arg
             $ batch_arg $ seed_arg $ timeout_arg $ liveness_arg
             $ heartbeat_arg $ max_restarts_arg $ checkpoint_dir_arg
             $ resume_arg $ incidents_arg $ chaos_arg $ bench_arg))))
