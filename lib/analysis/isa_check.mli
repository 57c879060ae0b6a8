(** Whole-program Task-ISA verifier (lint pass 1 of 3).

    [Task.validate] checks one Task in isolation; these checks span
    Task boundaries — the invariants of paper §3.1–§3.3 a program must
    satisfy as a whole.

    Diagnostic codes (beyond the per-Task [P-TSK-001..003] re-emitted
    with spans):
    - [P-ISA-001] dead X-REG store: no later Task reads an X operand
    - [P-ISA-002] W window exceeds the bank's word rows (would wrap)
    - [P-ISA-003] analog value dropped at a Task boundary (no ADC)
    - [P-ISA-004] iteration count indivisible by ACC_NUM+1 (the tail
      accumulation group never emits)
    - [P-ISA-005] X_PRD out of phase with ACC_NUM (groups mix segments)
    - [P-ISA-006] inconsistent or undrained DES=acc accumulator chain *)

val check_tasks :
  spans:(int -> Promise_core.Diag.span) ->
  Promise_isa.Task.t list ->
  Promise_core.Diag.t list
(** Full per-Task + whole-program check with caller-chosen spans. *)

val check_program : Promise_isa.Task.t list -> Promise_core.Diag.t list
(** {!check_tasks} with [Task i] spans. *)

val check_program_located :
  (int * Promise_isa.Task.t) list -> Promise_core.Diag.t list
(** {!check_tasks} over [Asm.parse_program_located] output, with
    [Line n] spans. *)
