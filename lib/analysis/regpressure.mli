(** X-REG pressure analysis and allocator cross-check (the [P-REG-*]
    pass).

    The machine stages vector operands in an X-REG file of
    [Promise_arch.Params.xreg_depth] entries. At the SSA level every
    simultaneously-live vector value needs its own entry, so the max
    number of vector-typed vregs live at any program point — computed
    from {!Liveness} interference — is the kernel's register
    pressure. Pressure above the X-REG depth cannot be staged without
    spilling the linter does not model: [P-REG-001] (error).

    The second check guards the other end of the toolchain: a bank
    {!Promise_compiler.Allocator} assignment in which two
    simultaneously-live (cycle-overlapping) task placements share a
    bank would silently corrupt both weights. {!check_allocation}
    re-verifies any plan from first principles — [P-REG-002] (error) —
    and the allocator runs it fail-closed on every plan it returns.
    The [alloc] record mirrors [Allocator.assignment] without the
    [Task.t] payload so the dependency keeps pointing compiler →
    analysis. *)

val check_function : Promise_ir.Ssa.func -> Promise_core.Diag.t list
(** [P-REG-001] when {!max_pressure} exceeds the X-REG depth. *)

type alloc = {
  index : int;  (** task position, for the diagnostic span *)
  level : int;
  first_bank : int;
  banks : int;
  start_cycle : int;
  finish_cycle : int;
}

val check_allocation : alloc list -> Promise_core.Diag.t list
(** [P-REG-002] for every pair of assignments whose cycle intervals
    (half-open) and bank ranges both intersect. *)

(** {2 Test hooks} *)

module For_tests : sig
  val max_pressure : Promise_ir.Ssa.func -> int
  (** Peak number of simultaneously-live vector-typed vregs across every
      program point. *)
end
