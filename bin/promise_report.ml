(* promise-report: regenerate the paper's tables and figures as text
   (the same sections the bench harness prints), supervised.

   Sections render as supervised work items: progress survives SIGINT
   / SIGTERM via --checkpoint/--resume, a section that blows its
   --timeout-ms deadline or keeps failing is quarantined (its slot in
   the report says so) instead of killing the whole regeneration, and
   --incidents records the JSONL audit trail.

   Usage: promise_report [--quick] [--jobs N] [--checkpoint FILE]
                         [--resume] [--incidents FILE] [--timeout-ms T]
                         [--max-retries R] [--seed S] [SECTION ...] *)

module P = Promise

(* exceptions escaping supervised items carry their backtrace into the
   typed error context; recording must be on for it to be non-empty *)
let () = Printexc.record_backtrace true
open Cmdliner

let run quick jobs seed timeout_ms max_retries checkpoint resume
    incidents_path sections =
  match P.check_env () with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok () when resume && checkpoint = None ->
      `Error (false, "--resume needs --checkpoint FILE to resume from")
  | Ok () -> (
      let ppf = Format.std_formatter in
      let names =
        match (quick, sections) with
        | true, _ -> P.Report.quick_names ()
        | false, [] -> P.Report.all_names ()
        | false, names -> P.Report.known_names ppf names
      in
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
            Format.eprintf "checkpoint: %d/%d sections -> %s@." completed
              total
              (Option.value checkpoint ~default:"-")
          in
          let outcome =
            P.Pool.with_pool ~jobs (fun pool ->
                P.Workload.run_local ~pool ~on_checkpoint session
                  (P.Report.workload names))
          in
          P.Incident.close incidents;
          match outcome with
          | P.Workload.Done (results, _) ->
              let quarantined = P.Report.print ppf names results in
              if quarantined > 0 then
                `Error
                  (false, Printf.sprintf "%d sections were quarantined" quarantined)
              else `Ok ()
          | P.Workload.Rejected e -> `Error (false, P.Error.to_string e)
          | P.Workload.Interrupted { completed; total } ->
              Format.eprintf
                "interrupted at %d/%d sections; resume with: promise-report \
                 --checkpoint %s --resume@."
                completed total
                (Option.value checkpoint ~default:"FILE");
              Stdlib.exit (P.Supervisor.exit_code stop))

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Skip the slow sections (fig12, table2, soa_dnn).")

let jobs_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--jobs" ~min:1 ~max:64) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Render sections and fan simulations out across $(docv) domains. \
           Output is bit-identical at any job count.")

let seed_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--seed" ~min:0 ~max:max_int) 0
    & info [ "seed" ] ~docv:"S" ~doc:"Retry-backoff jitter seed.")

let timeout_arg =
  Arg.(
    value
    & opt (some (Cli.validated_float_ms ~what:"--timeout-ms")) None
    & info [ "timeout-ms" ] ~docv:"T"
        ~doc:
          "Per-section deadline in milliseconds; overdue sections are \
           retried and finally quarantined.")

let max_retries_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--max-retries" ~min:0 ~max:16) 0
    & info [ "max-retries" ] ~docv:"R"
        ~doc:"Retries per section after its first failure.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Atomically persist rendered sections to $(docv).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ] ~doc:"Resume from --checkpoint FILE.")

let incidents_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "incidents" ] ~docv:"FILE"
        ~doc:"Append the JSONL incident log to $(docv).")

let sections_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"SECTION"
         ~doc:"Sections to print (default: all).")

let () =
  let info =
    Cmd.info "promise-report" ~version:P.version
      ~doc:
        "regenerate the paper's evaluation tables and figures — supervised, \
         checkpointed, resumable"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ quick_arg $ jobs_arg $ seed_arg $ timeout_arg
             $ max_retries_arg $ checkpoint_arg $ resume_arg $ incidents_arg
             $ sections_arg))))
