(** The lint pass lists, report assembly and rendering, shared by
    [promise-lint], the [--lint] flags of the other CLIs, the
    compiler's fail-closed gates and the test suite.

    A {!report} is one lint target (a [.pasm] file, a DSL kernel, a
    benchmark) with its sorted, deduplicated diagnostics. On top of
    the raw reports the driver implements the lint policy layer:
    warning promotion ([--deny]), warning budgets ([--max-warnings]),
    fingerprint baselines ([--baseline]) and the text/JSON/SARIF
    renderers. *)

type report = { target : string; diags : Promise_core.Diag.t list }

val dedupe : Promise_core.Diag.t list -> Promise_core.Diag.t list
(** Sort (span, then code, then severity) and drop structural
    duplicates — the byte-reproducible order cram and baseline diffs
    depend on. *)

val make : target:string -> Promise_core.Diag.t list -> report
(** Sorts and dedupes the diagnostics. *)

(** {2 Pass lists}

    Each input kind's passes, named once. promise-lint, every [--lint]
    flag and the compiler's fail-closed gates run these lists:
    [Pipeline.compile] gates on {!ssa_passes},
    [Lower.program_of_graph] on the ISA verifier
    ([Isa_check.check_program]) and [Pipeline.codegen] on
    {!dataflow_passes}. *)

val ssa_passes : Promise_ir.Ssa.func -> Promise_core.Diag.t list
(** The SSA list: SSA validation, dead code ([P-DCE-001]) and X-REG
    pressure. *)

val dataflow_passes :
  ?adc_units:int -> Promise_isa.Task.t list -> Promise_core.Diag.t list
(** Shadowed X-REG stores ([P-DCE-002]) and analog dwell timing
    ([P-TIM-*]) against a bank with [adc_units] live ADC units
    (default: all eight). *)

val task_passes :
  ?adc_units:int -> Promise_isa.Task.t list -> Promise_core.Diag.t list
(** The Task list: the whole-program Task-ISA verifier
    ([Isa_check.check_program], [Task i] spans) then
    {!dataflow_passes}. *)

val lint_pasm : ?adc_units:int -> target:string -> string -> report
(** The [.pasm] lint: parse assembly source and run the Task list, the
    ISA verifier with [Line n] spans and the dataflow passes with their
    Task spans moved onto source lines. A parse failure becomes the
    report's single diagnostic. *)

val errors : report -> int
val warnings : report -> int
val total_errors : report list -> int
val total_warnings : report list -> int

val exit_code : ?max_warnings:int -> report list -> int
(** 0 when no error-severity diagnostics and the warning count is
    within [max_warnings] (unlimited when omitted), 1 otherwise. CLI
    usage/IO failures use exit code 2 on top of this. *)

val summary : report list -> string
(** One line: ["N error(s), M warning(s) in K target(s)"]. *)

val apply_deny : deny:string list -> report list -> report list
(** Promote every warning whose code starts with one of the [deny]
    prefixes (e.g. ["P-TIM"]) to an error. *)

val fingerprint : report -> Promise_core.Diag.t -> string
(** {!Promise_core.Diag.fingerprint} salted with the report target. *)

val baseline_of_reports : report list -> string
(** The baseline JSON ([{"version":1,"fingerprints":[…]}]) covering
    every current diagnostic — what [--write-baseline] emits. *)

val parse_baseline : string -> (string list, string) result
(** Read a baseline file's fingerprint list. *)

val apply_baseline :
  baseline:string list -> report list -> report list * int
(** Drop every diagnostic whose fingerprint is in the baseline;
    returns the filtered reports and the suppressed count. *)

val render_text : report -> string
(** One line per diagnostic, prefixed with the target; ["<target>:
    clean"] when empty. *)

val render_json : report list -> string
(** A single JSON object with a summary and per-target diagnostics —
    the CI artifact format. *)

val render_sarif : ?tool_version:string -> report list -> string
(** SARIF 2.1.0 with one run; each result carries its rule id, level,
    location and the fingerprint under
    [partialFingerprints.promiseLint/v1]. *)
