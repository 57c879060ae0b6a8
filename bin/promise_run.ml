(* promise-run: run one of the Table-2 benchmarks end to end and report
   accuracy, energy and throughput against the CONV baselines.

   Usage: promise_run BENCHMARK [--swing N] [--pm P] [--optimize] [--jobs N]
                      [--batch N] [--lint]

   The analog datapath is PROMISE_KERNEL_MODE's (fused unless set to
   reference); the two are bit-identical. *)

module P = Promise
module B = P.Benchmarks
module Model = P.Energy.Model
module Conv = P.Energy.Conv

let benchmarks =
  [
    ("matched-filter", fun () -> B.matched_filter ());
    ("template-l1", fun () -> B.template_l1 ());
    ("template-l2", fun () -> B.template_l2 ());
    ("svm", fun () -> B.svm ());
    ("knn-l1", fun () -> B.knn_l1 ());
    ("knn-l2", fun () -> B.knn_l2 ());
    ("pca", fun () -> B.pca ());
    ("linreg", fun () -> B.linreg ());
    ("dnn-1", fun () -> B.dnn B.D1);
    ("dnn-2", fun () -> B.dnn B.D2);
    ("dnn-3", fun () -> B.dnn B.D3);
  ]

(* --lint runs promise-lint's benchmark lint, at this run's --pm,
   before simulating; the report goes to stderr and error diagnostics
   abort the run. *)
let run name swing pm optimize jobs batch lint =
  match (P.check_env (), List.assoc_opt name benchmarks) with
  | Error e, _ -> `Error (false, P.Error.to_string e)
  | Ok (), None ->
      `Error
        ( false,
          Printf.sprintf "unknown benchmark %S; try one of: %s" name
            (String.concat ", " (List.map fst benchmarks)) )
  | Ok (), Some build
    when lint && Result.is_error (Cli.lint_report (B.lint ~pm (build ()))) ->
      `Error (false, "lint reported errors (see diagnostics above)")
  | Ok (), Some build ->
      P.Pool.with_pool ~jobs @@ fun pool ->
      let b = build () in
      Printf.printf "benchmark: %s\n" b.B.name;
      Printf.printf "abstract tasks: %d, banks: %d, reference accuracy: %.3f\n"
        b.B.abstract_tasks b.B.banks b.B.reference_accuracy;
      let swings, label =
        if optimize then
          match B.optimize ~pool b ~pm with
          | Ok (swings, _) ->
              ( swings,
                Printf.sprintf "optimized at p_m = %.1f%%" (pm *. 100.0) )
          | Error msg ->
              prerr_endline ("optimization failed: " ^ msg);
              (B.max_swings b, "maximum (optimization failed)")
        else
          (List.init b.B.abstract_tasks (fun _ -> swing),
           Printf.sprintf "fixed %d" swing)
      in
      Printf.printf "swings: (%s) [%s]\n"
        (String.concat "," (List.map string_of_int swings))
        label;
      if batch > 1 then
        Printf.printf "batch: %d decisions per query (batched engine)\n" batch;
      let e = b.B.evaluate ~pool ~batch ~swings () in
      Printf.printf "PROMISE accuracy: %.3f (mismatch %.3f)\n"
        e.B.promise_accuracy e.B.mismatch;
      let energy = Model.total (B.promise_energy b ~swings) in
      let delay =
        float_of_int (Model.program_steady_cycles b.B.per_decision_program)
      in
      Printf.printf "energy/decision: %.1f pJ, steady delay: %.0f ns\n" energy
        delay;
      let conv8 = Model.total (Conv.energy Conv.Conv_8b b.B.conv_workload) in
      let conv8d = Conv.delay_ns Conv.Conv_8b b.B.conv_workload in
      Printf.printf
        "CONV-8b: %.1f pJ, %.0f ns  (energy ratio %.2fx, speed-up %.2fx)\n"
        conv8 conv8d (conv8 /. energy) (conv8d /. delay);
      `Ok ()

open Cmdliner

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (e.g. template-l1).")

let swing_arg =
  Arg.(
    value
    & opt (Cli.validated_int ~what:"--swing" ~min:0 ~max:7) 7
    & info [ "swing" ] ~docv:"N" ~doc:"SWING code 0-7.")

let pm_arg =
  Arg.(
    value
    & opt (Cli.positive_float ~what:"--pm") 0.01
    & info [ "pm" ] ~docv:"P" ~doc:"Mismatch-probability budget.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize" ] ~doc:"Run the compiler swing optimization.")

let jobs_arg =
  Arg.(
    value & opt (Cli.validated_int ~what:"--jobs" ~min:1 ~max:64) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the per-bank simulation and swing search out across $(docv) \
           domains. Results are bit-identical at any job count.")

let batch_arg =
  Arg.(
    value
    & opt
        (Cli.validated_int ~what:"--batch" ~min:1 ~max:4096)
        (P.Arch.Machine.default_batch ())
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Evaluate $(docv) batched noise realizations of every query \
           through the batch-dimension engine (default \
           $(b,PROMISE_BATCH) or 1). Batch 1 is bit-identical to the \
           unbatched evaluation.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run promise-lint's benchmark lint (interval overflow analysis, \
           Sakr feasibility at $(b,--pm), 0.01 unless given, and the Task \
           list) on the compiled benchmark before running it; the report \
           goes to stderr.")

let () =
  let info =
    Cmd.info "promise-run" ~version:Promise.version
      ~doc:"run a PROMISE benchmark end to end"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ name_arg $ swing_arg $ pm_arg $ optimize_arg
             $ jobs_arg $ batch_arg $ lint_arg))))
