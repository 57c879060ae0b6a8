(** Textual assembly for PROMISE programs.

    One Task per line. A line is the keyword [task] followed by
    [key=value] fields in any order; unspecified fields take their
    defaults (maximum swing, zero addresses, single bank, one iteration).
    Blank lines and [#]/[;] comments are ignored.

    {v
    # template matching, L1, 127 candidates over 4 banks (paper §3.4)
    task c1=aSUBT c2=absolute.avd c3=ADC c4=min rpt=126 mb=2 swing=7 \
         w=0 x1=0 x2=0 xprd=0 des=out thres=0
    v}

    Field keys: [c1] [c2] [c3] [c4] [rpt] [mb] [swing] [acc] [w] [x1] [x2]
    [xprd] [des] [thres]. [c2] is an aSD mnemonic, optionally suffixed with
    [.avd] to enable aggregation. A trailing backslash continues a line. *)

(** [print_task t] renders one task as a single assembly line. *)
val print_task : Task.t -> string

(** [print_program tasks] renders a whole program, one line per task. *)
val print_program : Task.t list -> string

(** [parse_program_located src] parses a whole source file, pairing
    each task with the 1-based source line it started on (for lint
    spans). Errors carry a [Line] span. *)
val parse_program_located :
  string -> ((int * Task.t) list, Promise_core.Diag.t) result

(** [parse_program src] — like {!parse_program_located} with the
    legacy string-error interface; errors render as
    ["line N: [CODE] message"]. *)
val parse_program : string -> (Task.t list, string) result

(** {2 Test hooks} *)

module For_tests : sig
  (** [parse_task line] parses a single [task ...] line. Syntax errors
      carry code [P-ASM-001]; task-legality errors carry the [P-TSK-*]
      code assigned by {!Task.validate}. *)
  val parse_task : string -> (Task.t, Promise_core.Diag.t) result
end
