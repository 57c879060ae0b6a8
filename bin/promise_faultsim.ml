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

let run supervised quick max_residual =
  Cli.run_supervised
    ~command:("promise-faultsim" ^ if quick then " --quick" else "")
    ~items:"items" supervised
    (P.Campaign.job ~batch:(P.Arch.Machine.default_batch ()) ~quick
       ~max_residual ())

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Run the five hard-fault scenarios only (skip transients, drift \
           and leakage).")

let max_residual_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--max-residual" ~min:0 ~max:max_int) 0
    & info [ "max-residual" ] ~docv:"K"
        ~doc:
          "Exit nonzero when more than $(docv) cells end unrecovered or \
           quarantined — the CI gate.")

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
            ret (const run $ Cli.supervised $ quick_arg $ max_residual_arg))))
