(** Energy optimization: bit precision → swing voltages (paper §4.4).

    For an aggregation over N elements to deliver B output bits at 99%
    confidence, Eq. (3) requires 2.6·f(SWING)/√N < 2^-(B+1); the pass
    picks the {e smallest} swing code satisfying it (energy is monotone
    in the swing). Multi-task graphs (DNNs) get per-task swings from the
    one analytic precision target and their per-task vector lengths;
    single-task kernels can instead be swept exhaustively over all
    eight codes against a simulation oracle (paper §4.4, last ¶). *)

(** [min_swing_for ~bits ~n] — smallest code meeting Eq. (3);
    [None] when even the maximum swing fails (caller falls back to 7). *)
val min_swing_for : bits:int -> n:int -> int option

(** [optimize_graph ?guard_bits g ~stats ~pm] — the analytic path:
    solve B_A from the Sakr bound ({!Precision}), then set each task's
    swing from its vector length. [guard_bits] (default 1) adds a
    safety margin on top of B_A covering the deterministic error
    sources outside the Eq. (3) noise model (ADC quantization, LUT
    non-linearity — see DESIGN.md). Returns the annotated graph and
    the precision target used (guard included). *)
val optimize_graph :
  ?guard_bits:int ->
  Promise_ir.Graph.t ->
  stats:Precision.stats ->
  pm:float ->
  (Promise_ir.Graph.t * int, string) result

(** The record of one brute-force sweep point. *)
type sweep_point = { swing : int; accuracy : float; energy_pj : float }

type sweep_result = {
  chosen : int;
  reference_accuracy : float;
  points : sweep_point list;  (** ascending swing *)
}

(** [optimize_single ~simulate ~energy_at ~reference_accuracy ~pm] —
    exhaustive sweep over the eight codes for a single-AbstractTask
    kernel: the chosen swing is the cheapest whose simulated accuracy
    drop stays within [pm] (falls back to 7 when none does). [simulate]
    runs the kernel on the machine at a given swing and returns
    accuracy; [energy_at] prices a swing. *)
val optimize_single :
  simulate:(int -> float) ->
  energy_at:(int -> float) ->
  reference_accuracy:float ->
  pm:float ->
  sweep_result

(** [search_space_size ~tasks] — 8^tasks (Figure 12's secondary axis). *)
val search_space_size : tasks:int -> int

(** {2 Test hooks} *)

module For_tests : sig
  (** [meets_eq3 ~swing ~bits ~n] — the Eq. (3) predicate. *)
  val meets_eq3 : swing:int -> bits:int -> n:int -> bool
end
