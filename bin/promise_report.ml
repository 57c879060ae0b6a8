(* promise-report: regenerate the paper's tables and figures as text
   (the same sections the bench harness prints), supervised.

   Sections render as supervised work items: progress survives SIGINT
   / SIGTERM via --checkpoint/--resume, a section that blows its
   --timeout-ms deadline or keeps failing is quarantined (its slot in
   the report says so) instead of killing the whole regeneration, and
   --incidents records the JSONL audit trail. An unknown section name
   is a usage error before anything renders.

   Usage: promise_report [--quick] [--jobs N] [--checkpoint FILE]
                         [--resume] [--incidents FILE] [--timeout-ms T]
                         [--max-retries R] [--seed S] [SECTION ...] *)

module P = Promise

(* exceptions escaping supervised items carry their backtrace into the
   typed error context; recording must be on for it to be non-empty *)
let () = Printexc.record_backtrace true
open Cmdliner

let run supervised quick sections =
  let names =
    match (quick, sections) with
    | true, _ -> P.Report.quick_names ()
    | false, [] -> P.Report.all_names ()
    | false, names -> names
  in
  match P.Report.job names with
  | Error e -> `Error (false, P.Error.to_string e)
  | Ok job ->
      Cli.run_supervised ~command:"promise-report" ~items:"sections" supervised
        job

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Skip the slow sections (fig12, table2, soa_dnn).")

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
          Term.(ret (const run $ Cli.supervised $ quick_arg $ sections_arg))))
