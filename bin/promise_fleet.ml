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
            [--max-restarts R] [--seed S] [--chaos kill-one] *)

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
    heartbeat_ms max_restarts checkpoint_dir resume incidents_path chaos =
  (* [job] across the fleet; its header, table and verdict are the
     in-process runner's, the fleet statistics and resume hint go to
     stderr *)
  let run_on_fleet workload job =
    Cli.with_incidents incidents_path (fun incidents ->
        match
          P.Retry.policy ~max_attempts:16 ~base_delay_ms:50.0
            ~max_delay_ms:1000.0 ~seed ()
        with
        | Error e -> `Error (false, P.Error.to_string e)
        | Ok restart_backoff -> (
            let stop = P.Supervisor.install_stop_signals () in
            match
              P.Fleet.config ~workers ?shard_timeout_ms:timeout_ms
                ?liveness_timeout_ms:liveness_ms ~heartbeat_ms ~max_restarts
                ~restart_backoff ~incidents ?checkpoint_dir ~resume ~chaos
                ~stop ()
            with
            | Error e -> `Error (false, P.Error.to_string e)
            | Ok cfg -> (
                let on_shard_done ~shard ~completed ~total =
                  Format.eprintf "fleet: shard %d done (%d/%d)@." shard
                    completed total
                in
                let execute w =
                  let outcome =
                    P.Workload.run_fleet ~on_shard_done cfg ~shards w
                  in
                  (match outcome with
                  | P.Workload.Done (_, summary) ->
                      Option.iter (eprint_summary workload) summary
                  | P.Workload.Interrupted _ | P.Workload.Rejected _ -> ());
                  outcome
                in
                let ppf = Format.std_formatter in
                let ending = P.Workload.run_job ppf execute job in
                Format.pp_print_flush ppf ();
                match ending with
                | P.Workload.Done (Ok ()) -> `Ok ()
                | P.Workload.Done (Error msg) -> `Error (false, msg)
                | P.Workload.Rejected e -> `Error (false, P.Error.to_string e)
                | P.Workload.Interrupted _ ->
                    resume_hint ~workload ~quick ~checkpoint_dir;
                    `Stopped (P.Supervisor.exit_code stop))))
  in
  match P.check_env () with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok () when resume && checkpoint_dir = None ->
      `Error (false, "--resume needs --checkpoint-dir DIR to resume from")
  | Ok () -> (
      match workload_args with
      | [] | [ "campaign" ] ->
          (* the fleet gate forgives no residual error *)
          run_on_fleet "campaign" (P.Campaign.job ~batch ~quick ~max_residual:0 ())
      | "campaign" :: _ ->
          `Error (false, "the campaign workload takes no section arguments")
      | "report" :: names -> (
          let names = if names = [] then P.Report.quick_names () else names in
          match P.Report.job names with
          | Error e -> `Error (false, P.Error.to_string e)
          | Ok job -> run_on_fleet "report" job)
      | w :: _ ->
          `Error
            ( false,
              Printf.sprintf "unknown workload %S (expected campaign or report)"
                w ))

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
             $ resume_arg $ incidents_arg $ chaos_arg))))
