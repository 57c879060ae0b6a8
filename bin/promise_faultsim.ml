(* promise-faultsim: the fault-injection campaign, run supervised.

   Injects hard-fault scenarios (stuck/dead lanes, dead banks, dead
   ADC units, ADC offset, X-REG transients, swing drift, excess
   leakage) into the simulated machine, runs the built-in self-test
   against the injection ground truth, re-runs the fast benchmarks
   under the BIST-derived recovery, and prints the detection /
   recovery / residual-accuracy table.

   The campaign is a first-class long-running job: progress is
   checkpointed atomically (--checkpoint, resume with --resume),
   SIGINT/SIGTERM flush a final checkpoint instead of losing the run,
   per-cell deadlines (--timeout-ms) retry with seeded backoff
   (--max-retries, --seed) and quarantine exhausted cells without
   aborting their siblings, and every supervision event lands in a
   JSONL incident log (--incidents). Queries score PROMISE_BATCH noise
   realizations each (default 1), the width promise-fleet campaign's
   --batch defaults to, so the two campaigns print the same table.

   Usage: promise_faultsim [--quick] [--jobs N] [--checkpoint FILE]
                           [--resume] [--incidents FILE] [--timeout-ms T]
                           [--max-retries R] [--seed S] [--max-residual K] *)

module P = Promise

(* exceptions escaping supervised items carry their backtrace into the
   typed error context; recording must be on for it to be non-empty *)
let () = Printexc.record_backtrace true
open Cmdliner

let run quick jobs seed timeout_ms max_retries max_residual checkpoint resume
    incidents_path =
  match P.check_env () with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok () when resume && checkpoint = None ->
      `Error (false, "--resume needs --checkpoint FILE to resume from")
  | Ok () -> (
      let incidents_r =
        match incidents_path with
        | None -> Ok P.Incident.null
        | Some path -> P.Incident.to_file path
      in
      let retry_r = P.Retry.policy ~max_attempts:(max_retries + 1) ~seed () in
      match (incidents_r, retry_r) with
      | Error e, _ | _, Error e -> `Error (false, P.Error.to_string e)
      | Ok incidents, Ok retry ->
          let stop = P.Supervisor.install_stop_signals () in
          let sup = P.Supervisor.config ?timeout_ms ~retry ~incidents () in
          let session =
            P.Supervisor.session ~sup ?checkpoint ~resume ~stop ()
          in
          let on_checkpoint ~completed ~total =
            (* stderr: the stdout table must stay diffable *)
            Format.eprintf "checkpoint: %d/%d items -> %s@." completed total
              (Option.value checkpoint ~default:"-")
          in
          let ppf = Format.std_formatter in
          let scenarios =
            if quick then P.Campaign.quick_scenarios ()
            else P.Campaign.all_scenarios ()
          in
          let benchmarks = P.Campaign.fast_benchmarks () in
          P.Campaign.print_header ppf ~quick ~scenarios ~benchmarks;
          let outcome =
            P.Pool.with_pool ~jobs (fun pool ->
                P.Workload.run_local ~pool ~on_checkpoint session
                  (P.Campaign.workload
                     ~batch:(P.Arch.Machine.default_batch ())
                     ~scenarios ~benchmarks ()))
          in
          P.Incident.close incidents;
          match outcome with
          | P.Workload.Done (results, _) -> (
              let cells = P.Campaign.assemble ~scenarios ~benchmarks results in
              P.Campaign.print ppf cells;
              match P.Campaign.verdict ~max_residual cells with
              | Ok () -> `Ok ()
              | Error msg -> `Error (false, msg))
          | P.Workload.Rejected e -> `Error (false, P.Error.to_string e)
          | P.Workload.Interrupted { completed; total } ->
              Format.eprintf
                "interrupted at %d/%d items; resume with: promise-faultsim%s \
                 --checkpoint %s --resume@."
                completed total
                (if quick then " --quick" else "")
                (Option.value checkpoint ~default:"FILE");
              Stdlib.exit (P.Supervisor.exit_code stop))

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Run the five hard-fault scenarios only (skip transients, drift \
           and leakage).")

let jobs_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--jobs" ~min:1 ~max:64) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the campaign cells out across $(docv) domains. The table is \
           bit-identical at any job count.")

let seed_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--seed" ~min:0 ~max:max_int) 0
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Seed of the retry-backoff jitter stream: reruns replay the exact \
           same waits.")

let timeout_arg =
  Arg.(
    value
    & opt (some (Cli.validated_float_ms ~what:"--timeout-ms")) None
    & info [ "timeout-ms" ] ~docv:"T"
        ~doc:
          "Per-cell deadline in milliseconds. An overdue cell is logged by \
           the watchdog, retried with backoff, and finally quarantined — \
           sibling cells are unaffected. Off by default (deadlines make \
           results depend on machine speed).")

let max_retries_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--max-retries" ~min:0 ~max:16) 0
    & info [ "max-retries" ] ~docv:"R"
        ~doc:
          "Retries per cell after its first failure (exponential backoff \
           with deterministic jitter).")

let max_residual_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--max-residual" ~min:0 ~max:max_int) 0
    & info [ "max-residual" ] ~docv:"K"
        ~doc:
          "Exit nonzero when more than $(docv) cells end unrecovered or \
           quarantined — the CI gate.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Atomically persist campaign progress to $(docv) after every \
           chunk; a completed run removes the file.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from --checkpoint FILE. A checkpoint written by a \
           different configuration is rejected, not silently resumed.")

let incidents_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "incidents" ] ~docv:"FILE"
        ~doc:
          "Append a JSONL incident log (timeouts, retries, quarantines, \
           checkpoint writes, signal flushes) to $(docv).")

let () =
  let info =
    Cmd.info "promise-faultsim" ~version:P.version
      ~doc:
        "fault-injection campaign: detection, recovery, residual accuracy — \
         supervised, checkpointed, resumable"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ quick_arg $ jobs_arg $ seed_arg $ timeout_arg
             $ max_retries_arg $ max_residual_arg $ checkpoint_arg
             $ resume_arg $ incidents_arg))))
