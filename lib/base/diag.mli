(** Shared diagnostics for the static-analysis passes.

    Every check in the lint stack — per-task OP_PARAM validation, the
    whole-program Task-ISA verifier, the SSA validator and the interval
    overflow analysis — reports through this one vocabulary: a stable
    code (["P-ISA-003"]), a severity, a source span and a message.
    Stable codes are the contract: tests assert them, CI greps them,
    and the docs table in ARCHITECTURE §10 enumerates them.

    Error-severity diagnostics convert into the typed
    {!Promise_core.Error.t} via {!to_error} so compiler entry points
    fail closed through the existing error channel. *)

type severity = Info | Warning | Error

type span =
  | No_span
  | Line of int  (** 1-based source line of a [.pasm] file *)
  | Task of int  (** 0-based index into an ISA program *)
  | Block of string  (** SSA block label *)
  | Instr of { block : string; vreg : int }  (** SSA instruction *)
  | Node of int  (** AbstractTask graph node id *)

type t = { code : string; severity : severity; span : span; message : string }

val make : ?severity:severity -> ?span:span -> code:string -> string -> t
(** [make ~code msg] — an error-severity diagnostic with no span. *)

val errorf :
  ?span:span -> code:string -> ('a, unit, string, t) format4 -> 'a
(** [errorf ~code fmt ...] — printf-style error constructor. *)

val warningf :
  ?span:span -> code:string -> ('a, unit, string, t) format4 -> 'a

val code : t -> string
val severity : t -> severity
val span : t -> span
val message : t -> string

val with_span : t -> span -> t
(** Attach or replace the span (checks often discover the position
    after the fact, e.g. the assembler adding the line number). *)

val span_to_string : span -> string
(** Human rendering, e.g. ["line 3"], ["task 2"]; [""] for {!No_span}. *)

val render : t -> string
(** Compact ["[CODE] message"] — used when a diagnostic is embedded in
    a legacy string error (assembler line errors, [invalid_arg]). *)

val to_string : t -> string
(** Full one-line rendering: ["error[P-ISA-003] task 2: message"]. *)

val count_errors : t list -> int
val count_warnings : t list -> int
val first_error : t list -> t option

val sort : t list -> t list
(** Stable report order: span position, then code, then severity
    (errors before warnings at the same position). *)

val fingerprint : ?salt:string -> t -> string
(** Stable 16-hex-char identity of a diagnostic — MD5 of
    [salt × code × span × message skeleton] — used by the lint
    baseline ([promise-lint --baseline]) and the SARIF
    [partialFingerprints]. The driver salts with the target name so
    the same diagnostic in two files stays distinguishable. *)

val to_error : layer:string -> t -> Error.t
(** Lift into the typed error channel ([Invalid_operand], with the
    diagnostic code and span in the context) so pipelines fail closed. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

(** {2 Test hooks} *)

module For_tests : sig
  val skeleton : string -> string
  (** Message skeleton: every run of decimal digits collapses to ['#'],
      so messages differing only in numeric payload (bounds, cycle
      counts) share an identity. *)

  val to_json : t -> string
  (** One JSON object:
      [{"code":…,"severity":…,"span":…,"message":…}]. *)
end
