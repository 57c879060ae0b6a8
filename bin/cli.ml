(* What the promise-* executables share: the Cmdliner converters (flag
   values go through the typed validators, so junk reports the same
   structured Error.t a PROMISE_* environment-variable failure does),
   the --lint report, the --incidents sink, and the supervised local
   runner with its seven flags. *)

open Cmdliner

let of_validated parse s =
  match parse s with
  | Ok v -> Ok v
  | Error e -> Error (`Msg (Promise.Error.to_string e))

let validated_int ~what ~min ~max =
  Arg.conv
    ( of_validated (Promise.Validate.int_in_range ~what ~min ~max),
      Format.pp_print_int )

let validated_float_ms ~what =
  Arg.conv
    ( of_validated (Promise.Validate.non_negative_float ~what),
      fun ppf v -> Format.fprintf ppf "%g" v )

let positive_float ~what =
  Arg.conv
    ( (fun s ->
        match Promise.Validate.non_negative_float ~what s with
        | Ok v when v > 0.0 -> Ok v
        | Ok _ -> Error (`Msg (what ^ " must be > 0"))
        | Error e -> Error (`Msg (Promise.Error.to_string e))),
      Format.pp_print_float )

(* The stderr report of every --lint flag: promise-lint's text
   rendering and summary line. [Error] when the report holds an
   error-severity diagnostic. *)
let lint_report report =
  let module Lint = Promise.Analysis.Lint in
  prerr_string (Lint.render_text report);
  prerr_endline (Lint.summary [ report ]);
  if Lint.exit_code [ report ] = 0 then Ok ()
  else Error "lint reported errors (see diagnostics above)"

(* The incident sink behind every --incidents flag: [f] runs with the
   JSONL sink at [path] (the null sink without one), which is closed
   once [f] returns. [`Stopped code] is a run interrupted by SIGINT or
   SIGTERM: the process exits with [code] only after the sink is
   closed. *)
let with_incidents path f =
  let finish = function
    | `Stopped code -> Stdlib.exit code
    | (`Ok _ | `Error _) as r -> r
  in
  match path with
  | None -> finish (f Promise.Incident.null)
  | Some p -> (
      match Promise.Incident.to_file p with
      | Error e -> `Error (false, Promise.Error.to_string e)
      | Ok incidents ->
          let r = f incidents in
          Promise.Incident.close incidents;
          finish r)

(* The seven flags of a supervised local run (promise-report,
   promise-faultsim); --seed and --max-retries make up [retry].
   Evaluating the term also checks the PROMISE_* environment and that
   --resume has a --checkpoint, so a binary's own code runs only on a
   valid configuration. *)
type supervised = {
  jobs : int;
  retry : Promise.Retry.policy;
  timeout_ms : float option;
  checkpoint : string option;
  resume : bool;
  incidents : string option;
}

let supervised =
  let jobs =
    Arg.(
      value
      & opt (validated_int ~what:"--jobs" ~min:1 ~max:64) 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan the work items (report sections, campaign cells) out \
             across $(docv) domains. The output is bit-identical at any \
             job count.")
  and seed =
    Arg.(
      value
      & opt (validated_int ~what:"--seed" ~min:0 ~max:max_int) 0
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Seed of the retry-backoff jitter stream: reruns replay the \
             exact same waits.")
  and timeout_ms =
    Arg.(
      value
      & opt (some (validated_float_ms ~what:"--timeout-ms")) None
      & info [ "timeout-ms" ] ~docv:"T"
          ~doc:
            "Per-item deadline in milliseconds. An overdue item is logged \
             by the watchdog, retried with backoff, and finally \
             quarantined; its siblings are unaffected. Off by default \
             (deadlines make results depend on machine speed).")
  and max_retries =
    Arg.(
      value
      & opt (validated_int ~what:"--max-retries" ~min:0 ~max:16) 0
      & info [ "max-retries" ] ~docv:"R"
          ~doc:
            "Retries per item after its first failure (exponential backoff \
             with deterministic jitter).")
  and checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Atomically persist progress to $(docv) after every chunk; a \
             completed run removes the file.")
  and resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from --checkpoint FILE. A checkpoint written by a \
             different configuration is rejected, not silently resumed.")
  and incidents =
    Arg.(
      value
      & opt (some string) None
      & info [ "incidents" ] ~docv:"FILE"
          ~doc:
            "Append a JSONL incident log (timeouts, retries, quarantines, \
             checkpoint writes, signal flushes) to $(docv).")
  in
  let make jobs seed timeout_ms max_retries checkpoint resume incidents =
    match
      Result.bind (Promise.check_env ()) (fun () ->
          Promise.Retry.policy ~max_attempts:(max_retries + 1) ~seed ())
    with
    | Error e -> `Error (false, Promise.Error.to_string e)
    | Ok _ when resume && checkpoint = None ->
        `Error (false, "--resume needs --checkpoint FILE to resume from")
    | Ok retry -> `Ok { jobs; retry; timeout_ms; checkpoint; resume; incidents }
  in
  Term.(
    ret
      (const make $ jobs $ seed $ timeout_ms $ max_retries $ checkpoint
     $ resume $ incidents))

(* The local supervised runner: [job] on a pool of [o.jobs] domains
   under the deadline/retry/quarantine policy, checkpointed after every
   chunk. Progress lines and the resume hint go to stderr and count
   [items]; [command] starts the hint. *)
let run_supervised ~command ~items o job =
  with_incidents o.incidents (fun incidents ->
      let module W = Promise.Workload in
      let stop = Promise.Supervisor.install_stop_signals () in
      let sup =
        Promise.Supervisor.config ?timeout_ms:o.timeout_ms ~retry:o.retry
          ~incidents ()
      in
      let session =
        Promise.Supervisor.session ~sup ?checkpoint:o.checkpoint
          ~resume:o.resume ~stop ()
      in
      let on_checkpoint ~completed ~total =
        Format.eprintf "checkpoint: %d/%d %s -> %s@." completed total items
          (Option.value o.checkpoint ~default:"-")
      in
      match
        Promise.Pool.with_pool ~jobs:o.jobs (fun pool ->
            W.run_job Format.std_formatter
              (W.run_local ~pool ~on_checkpoint session)
              job)
      with
      | W.Done (Ok ()) -> `Ok ()
      | W.Done (Error msg) -> `Error (false, msg)
      | W.Rejected e -> `Error (false, Promise.Error.to_string e)
      | W.Interrupted { completed; total } ->
          Format.eprintf
            "interrupted at %d/%d %s; resume with: %s --checkpoint %s \
             --resume@."
            completed total items command
            (Option.value o.checkpoint ~default:"FILE");
          `Stopped (Promise.Supervisor.exit_code stop))
