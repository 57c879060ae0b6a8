(* promise-lint: static analysis for PROMISE programs.

   Lints .pasm assembly files, .sexp DSL kernels and the compiled
   Table-2 benchmarks with the library's lint for each input kind
   (Analysis.Lint.lint_pasm, Pipeline.lint_kernel, Benchmarks.lint);
   Analysis.Lint names the passes each one runs.

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

(* .sexp kernels: a parse failure is the report's single diagnostic. *)
let lint_file ?adc_units path =
  let src = read_file path in
  if Filename.check_suffix path ".pasm" then
    Lint.lint_pasm ?adc_units ~target:path src
  else if Filename.check_suffix path ".sexp" then
    match P.Ir.Sexp_frontend.parse src with
    | Error msg ->
        Lint.make ~target:path
          [ Diag.errorf ~code:"P-ASM-001" "parse error: %s" msg ]
    | Ok kernel ->
        P.Compiler.Pipeline.lint_kernel ?adc_units ~target:path kernel
  else
    raise
      (Io_failure
         (Printf.sprintf "%s: unknown input kind (expected .pasm or .sexp)"
            path))

(* The nine Table-2 benchmarks: the Figure-10 suite plus DNN-1. *)
let benchmark_suite () = B.fig10_suite () @ [ B.dnn B.D1 ]

(* --deny values are comma-separated code prefixes. Each must be a
   non-empty uppercase prefix like P-TIM: a lowercase one matches no
   code, and the empty one matches (so promotes) every warning. *)
let parse_deny deny =
  let prefixes = List.concat_map (String.split_on_char ',') deny in
  let valid prefix =
    prefix <> ""
    && String.for_all
         (function 'A' .. 'Z' | '0' .. '9' | '-' -> true | _ -> false)
         prefix
  in
  match List.find_opt (fun p -> not (valid p)) prefixes with
  | None -> Ok prefixes
  | Some prefix ->
      P.Error.fail ~layer:"cli" ~code:P.Error.Invalid_operand
        ~context:[ ("flag", "--deny"); ("prefix", prefix) ]
        "deny prefixes are uppercase code prefixes like P-TIM"

let run files benchmarks pm format baseline write_baseline max_warnings deny
    adc_units =
  match Result.bind (P.check_env ()) (fun () -> parse_deny deny) with
  | Error e ->
      prerr_endline (P.Error.to_string e);
      2
  | Ok deny -> (
      if files = [] && not benchmarks then begin
        prerr_endline
          "promise-lint: nothing to lint (give FILES or --benchmarks)";
        2
      end
      else
        try
          (* read the baseline first: a bad path fails before the lint
             work, as a startup check would, not after it *)
          let baseline =
            match (write_baseline, baseline) with
            | None, Some path -> (
                match Lint.parse_baseline (read_file path) with
                | Error msg -> raise (Io_failure (path ^ ": " ^ msg))
                | Ok fps -> Some fps)
            | _ -> None
          in
          let reports =
            List.map (lint_file ?adc_units) files
            @
            if benchmarks then
              List.map (B.lint ?pm ?adc_units) (benchmark_suite ())
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
                | Some fps -> Lint.apply_baseline ~baseline:fps reports
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

let pm_arg =
  Arg.(
    value
    & opt (some (Cli.positive_float ~what:"--pm")) None
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
           $(docv) (see $(b,--write-baseline)).")

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
           $(b,P-TIM)) to errors; comma-separated and repeatable. A prefix \
           that is empty or not made of A-Z, 0-9 and - is a usage error \
           (exit 2).")

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
