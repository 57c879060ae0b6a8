(* promise-lint: static analysis for PROMISE programs.

   Lints .pasm assembly files (whole-program Task-ISA verification +
   the Task-level dataflow passes), .sexp DSL kernels (SSA validation,
   liveness/dead-code, X-REG pressure, interval overflow analysis, and
   ISA + timing verification of the compiled Tasks) and the compiled
   Table-2 benchmarks.

   Policy layer: --deny PREFIX promotes matching warnings to errors,
   --max-warnings N bounds the warning count, --baseline FILE
   suppresses exactly the fingerprinted diagnostics recorded there
   (--write-baseline seeds such a file), --format sarif emits the CI
   code-scanning artifact.

   Exit codes: 0 = clean (unsuppressed warnings allowed, within
   --max-warnings), 1 = error diagnostics or warning budget exceeded,
   2 = usage or I/O failure. *)

module P = Promise
module Diag = P.Diag
module Lint = P.Analysis.Lint
module Ssa_check = P.Analysis.Ssa_check
module Isa_check = P.Analysis.Isa_check
module Interval = P.Analysis.Interval
module Liveness = P.Analysis.Liveness
module Regpressure = P.Analysis.Regpressure
module Timing_check = P.Analysis.Timing_check
module B = P.Benchmarks

exception Io_failure of string

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg -> raise (Io_failure msg)

let write_file path data =
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data)
  with Sys_error msg -> raise (Io_failure msg)

(* Task-level dataflow passes shared by every path that reaches a
   compiled Task stream. *)
let task_passes ?adc_units tasks =
  Liveness.check_program tasks @ Timing_check.check_program ?adc_units tasks

(* .sexp kernels run the full frontend + backend under the linter:
   SSA validation, liveness and X-REG pressure on the lowered
   function, interval analysis on the matched graph, then whole-
   program ISA verification and the timing pass on the compiled
   Tasks. A frontend/backend failure is itself a diagnostic. *)
let lint_kernel ?adc_units ~target src =
  match P.Ir.Sexp_frontend.parse src with
  | Error msg ->
      Lint.make ~target [ Diag.errorf ~code:"P-ASM-001" "parse error: %s" msg ]
  | Ok kernel -> (
      match P.Ir.Dsl.lower kernel with
      | exception Invalid_argument msg ->
          Lint.make ~target [ Diag.errorf ~code:"P-SSA-005" "%s" msg ]
      | ssa -> (
          let ssa_diags =
            Ssa_check.validate ssa @ Liveness.check ssa
            @ Regpressure.check_function ssa
          in
          if Diag.count_errors ssa_diags > 0 then Lint.make ~target ssa_diags
          else
            match P.Ir.Pattern.match_function ssa with
            | Error msg ->
                Lint.make ~target
                  (ssa_diags
                  @ [
                      Diag.errorf ~code:"P-OVF-004"
                        "kernel does not match the Figure-7 pattern: %s" msg;
                    ])
            | Ok graph -> (
                let _, ovf_diags = Interval.analyze graph in
                match P.Compiler.Lower.program_of_graph graph with
                | Error e ->
                    Lint.make ~target
                      (ssa_diags @ ovf_diags
                      @ [
                          Diag.errorf ~code:"P-OVF-004" "lowering failed: %s"
                            (P.Error.to_string e);
                        ])
                | Ok program ->
                    let tasks = program.P.Isa.Program.tasks in
                    Lint.make ~target
                      (ssa_diags @ ovf_diags @ Isa_check.check_program tasks
                      @ task_passes ?adc_units tasks))))

(* .pasm files: the located ISA verifier plus the Task-level dataflow
   passes, with Task-index spans relocated onto source lines. *)
let lint_pasm ?adc_units ~target src =
  match P.Isa.Asm.parse_program_located src with
  | Error d -> Lint.make ~target [ d ]
  | Ok located ->
      let tasks = List.map snd located in
      let lines = Array.of_list (List.map fst located) in
      let relocate d =
        match Diag.span d with
        | Diag.Task i when i >= 0 && i < Array.length lines ->
            Diag.with_span d (Diag.Line lines.(i))
        | _ -> d
      in
      Lint.make ~target
        (Isa_check.check_program_located located
        @ List.map relocate (task_passes ?adc_units tasks))

let lint_file ?adc_units path =
  let src = read_file path in
  if Filename.check_suffix path ".pasm" then lint_pasm ?adc_units ~target:path src
  else if Filename.check_suffix path ".sexp" then
    lint_kernel ?adc_units ~target:path src
  else
    raise
      (Io_failure
         (Printf.sprintf "%s: unknown input kind (expected .pasm or .sexp)"
            path))

(* The nine Table-2 benchmarks: the Figure-10 suite plus DNN-1. *)
let benchmark_suite () = B.fig10_suite () @ [ B.dnn B.D1 ]

let lint_benchmark ?pm ?adc_units (b : B.t) =
  let tasks = b.B.per_decision_program.P.Isa.Program.tasks in
  let isa = Isa_check.check_program tasks in
  let _, ovf = Interval.analyze b.B.graph in
  let stats =
    match (pm, b.B.stats) with
    | Some pm, Some s ->
        Interval.check_stats ~ea:s.P.Compiler.Precision.ea
          ~ew:s.P.Compiler.Precision.ew ~pm
    | _ -> []
  in
  Lint.make
    ~target:("benchmark:" ^ b.B.name)
    (isa @ ovf @ stats @ task_passes ?adc_units tasks)

let run files benchmarks pm format baseline write_baseline max_warnings deny
    adc_units =
  match P.check_env () with
  | Error e ->
      prerr_endline (P.Error.to_string e);
      2
  | Ok () -> (
      if files = [] && not benchmarks then begin
        prerr_endline
          "promise-lint: nothing to lint (give FILES or --benchmarks)";
        2
      end
      else
        try
          (* env-var defaults behind the flags (flags win) *)
          let baseline =
            match baseline with
            | Some _ -> baseline
            | None -> (
                match Sys.getenv_opt "PROMISE_LINT_BASELINE" with
                | Some "" | None -> None
                | p -> p)
          in
          let deny =
            deny
            @ (match Sys.getenv_opt "PROMISE_LINT_DENY" with
              | Some spec when String.trim spec <> "" ->
                  String.split_on_char ',' (String.trim spec)
              | _ -> [])
          in
          let reports =
            List.map (lint_file ?adc_units) files
            @
            if benchmarks then
              List.map (lint_benchmark ?pm ?adc_units) (benchmark_suite ())
            else []
          in
          let reports = Lint.apply_deny ~deny reports in
          match write_baseline with
          | Some path ->
              write_file path (Lint.baseline_of_reports reports ^ "\n");
              Printf.printf "wrote baseline (%d diagnostic(s)) to %s\n"
                (Lint.total_errors reports + Lint.total_warnings reports)
                path;
              0
          | None ->
              let reports, suppressed =
                match baseline with
                | None -> (reports, 0)
                | Some path -> (
                    match Lint.parse_baseline (read_file path) with
                    | Error msg -> raise (Io_failure (path ^ ": " ^ msg))
                    | Ok fps -> Lint.apply_baseline ~baseline:fps reports)
              in
              (match format with
              | "json" -> print_string (Lint.render_json reports ^ "\n")
              | "sarif" ->
                  print_string
                    (Lint.render_sarif ~tool_version:P.version reports ^ "\n")
              | _ ->
                  List.iter
                    (fun r -> print_string (Lint.render_text r))
                    reports;
                  let s = Lint.summary reports in
                  print_endline
                    (if suppressed = 0 then s
                     else
                       Printf.sprintf "%s (%d suppressed by baseline)" s
                         suppressed));
              Lint.exit_code ?max_warnings reports
        with Io_failure msg ->
          prerr_endline ("promise-lint: " ^ msg);
          2)

open Cmdliner

let files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILES" ~doc:"Inputs: $(b,.pasm) assembly or $(b,.sexp) DSL kernels.")

let benchmarks_arg =
  Arg.(
    value & flag
    & info [ "benchmarks" ]
        ~doc:"Lint the nine compiled Table-2 benchmark programs and graphs.")

let pm_conv =
  Arg.conv
    ( (fun s ->
        match P.Validate.non_negative_float ~what:"--pm" s with
        | Ok v when v > 0.0 -> Ok v
        | Ok _ -> Error (`Msg "--pm must be > 0")
        | Error e -> Error (`Msg (P.Error.to_string e))),
      Format.pp_print_float )

let pm_arg =
  Arg.(
    value
    & opt (some pm_conv) None
    & info [ "pm" ] ~docv:"P"
        ~doc:
          "Also check Sakr precision feasibility (P-OVF-003) of benchmark \
           statistics against mismatch budget $(docv).")

let format_conv =
  Arg.conv
    ( (fun s ->
        match
          P.Validate.enum ~what:"--format" ~values:[ "text"; "json"; "sarif" ] s
        with
        | Ok v -> Ok v
        | Error e -> Error (`Msg (P.Error.to_string e))),
      Format.pp_print_string )

let format_arg =
  Arg.(
    value & opt format_conv "text"
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Report format: $(b,text), $(b,json) (the CI artifact) or \
           $(b,sarif) (SARIF 2.1.0 for code scanning).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Suppress every diagnostic whose fingerprint is recorded in \
           $(docv) (see $(b,--write-baseline)). Defaults to \
           $(b,PROMISE_LINT_BASELINE) when set.")

let write_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:
          "Write the fingerprints of every current diagnostic to $(docv) \
           and exit 0 — the seed for $(b,--baseline) gating.")

let max_warnings_arg =
  Arg.(
    value
    & opt
        (some (Cli.validated_int ~what:"--max-warnings" ~min:0 ~max:1_000_000))
        None
    & info [ "max-warnings" ] ~docv:"N"
        ~doc:
          "Exit 1 when more than $(docv) warnings remain after baseline \
           suppression (0 = warnings are fatal).")

let deny_arg =
  Arg.(
    value & opt_all string []
    & info [ "deny" ] ~docv:"CODE-PREFIX"
        ~doc:
          "Promote warnings whose code starts with $(docv) (e.g. \
           $(b,P-TIM)) to errors; repeatable. Merged with \
           $(b,PROMISE_LINT_DENY) (comma-separated).")

let adc_units_arg =
  Arg.(
    value
    & opt
        (some
           (Cli.validated_int ~what:"--adc-units" ~min:1
              ~max:P.Analog.Adc.units_per_bank))
        None
    & info [ "adc-units" ] ~docv:"N"
        ~doc:
          "Lint the timing pass against a degraded bank with only $(docv) \
           live ADC units (default: the full complement of 8) — P-TIM-001 \
           dwell includes conversion stalls and P-TIM-003 flags conversion \
           backlog.")

let () =
  let info =
    Cmd.info "promise-lint" ~version:P.version
      ~doc:"static analysis for PROMISE programs"
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ files_arg $ benchmarks_arg $ pm_arg $ format_arg
            $ baseline_arg $ write_baseline_arg $ max_warnings_arg $ deny_arg
            $ adc_units_arg)))
