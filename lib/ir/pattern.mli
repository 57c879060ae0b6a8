(** The PROMISE pass: SSA pattern matching (paper §4.3, Fig. 7).

    Over each SSA function the pass
    + finds single-basic-block natural loops, canonicalizing induction
      variables (incrementing or decrementing by 1);
    + matches the loop body against the Figure-7 SSA pattern —
      [getindex] of the IV-th row of W, an element-wise vector operation
      with a loop-invariant X, a reduction library call, an optional
      scalar unary op, and a [getelementptr]+[store] into the output —
      extracting an {!Abstract_task.t};
    + recognizes whole-array library calls ([mean], [mean_square],
      [mean_product]) as reduction AbstractTasks (the Linear-Regression
      statistics of Table 2);
    + fuses post-loop decision library calls ([argmin]/[argmax] of a
      matched loop's output) into the producing task's Class-4 digital
      op, as §3.4's template-matching example does;
    + assembles the matched tasks into the compiler IR DAG. *)

(** A canonicalized single-basic-block natural loop. *)
type loop_info = {
  block : Ssa.label;
  iv_phi : int;  (** Vreg of the induction-variable phi *)
  start : int;
  iterations : int;
}

(** [match_function f] — the whole pass: [Error] when a loop or
    reduction call fails to match (the computation cannot be offloaded). *)
val match_function : Ssa.func -> (Graph.t, string) result

(** {2 Test hooks} *)

module For_tests : sig
  (** [find_loops f]. *)
  val find_loops : Ssa.func -> loop_info list
end
