(** Liveness and dead-code analysis (the [P-DCE-*] pass), hosted on
    {!Dataflow}.

    Two levels, mirroring the two program representations the linter
    sees:

    - {b SSA}: classic backward liveness over the CFG. Phi uses are
      attributed to the {e end of the incoming predecessor} (the value
      must be live across that edge, not at the phi itself), which is
      what makes loop-carried induction variables come out right. A
      pure instruction (everything except [Store] and [Call]) whose
      result is live nowhere is dead code — [P-DCE-001] (warning: the
      value is simply never computed into anything observable).

    - {b Task stream}: a backward pass over the straight-line program
      generalizing the [P-ISA-001] dead-store check to cross-Task
      X-REG lifetimes. Every ADC-routed [DES = xreg] store lands on
      the same X-REG slot (the runtime's staging register), so a
      store followed by another store before any Task reads an X
      operand can never be observed — [P-DCE-002] (error). The plain
      "no later reader at all" case stays [P-ISA-001]; this pass only
      fires when a later reader exists but an intervening store
      shadows the value, so the two codes never double-report. *)

module IntSet : Set.S with type elt = int

type ssa_liveness = {
  live_in : IntSet.t array;  (** per block, declaration order *)
  live_out : IntSet.t array;
}

val live_after : Promise_ir.Ssa.func -> (int -> IntSet.t)
(** [live_after f] — per global instruction index, the set of vregs
    live immediately after that instruction (block terminator uses and
    successor-phi edge uses included). *)

val check : Promise_ir.Ssa.func -> Promise_core.Diag.t list
(** [P-DCE-001] for every dead pure instruction. *)

val check_program : Promise_isa.Task.t list -> Promise_core.Diag.t list
(** [P-DCE-002] for every X-REG store shadowed by a later store before
    any X read. *)

(** {2 Test hooks} *)

module For_tests : sig
  val ssa_liveness : Promise_ir.Ssa.func -> ssa_liveness
  (** Solve backward liveness over the function's CFG. *)
end
