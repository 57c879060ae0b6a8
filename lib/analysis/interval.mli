(** Interval abstract interpretation of the 8-bit datapath (lint pass
    3 of 3).

    Walks the AbstractTask graph in topological order, bounding the
    value each node emits given the datapath semantics (normalized
    [[-1, 127/128]] operands, halved fused add/subtract, charge-share
    mean, ±1 ADC full scale, TH accumulation over ACC_NUM+1 = segments
    samples) and flags values that would saturate an 8-bit register
    destination.

    Diagnostic codes:
    - [P-OVF-001] (error) a node's emitted interval exceeds the 8-bit
      register range it is routed to — values clamp
    - [P-OVF-002] (warning) a node consumes the output of a saturated
      producer
    - [P-OVF-003] (error) the Sakr precision assignment is infeasible
      in the 8-bit datapath ({!check_stats})
    - [P-OVF-004] (error) a node's vector has no bank placement *)

type bounds = { lo : float; hi : float }

type node_report = {
  node : int;  (** graph node id *)
  name : string;
  emitted : bounds;  (** value interval seen by consumers *)
  quantized : bool;  (** destination is an 8-bit register (X-REG) *)
  saturates : bool;
}

val analyze :
  Promise_ir.Graph.t -> node_report list * Promise_core.Diag.t list
(** Per-node bounds (topological order) and the diagnostics. *)

val check_stats : ea:float -> ew:float -> pm:float -> Promise_core.Diag.t list
(** [P-OVF-003] when {!min_bits} fails or exceeds the 8-bit datapath. *)

(** {2 Test hooks} *)

module For_tests : sig
  val weight_bits : int
  (** 7 — the datapath's fixed weight precision, as in
      [Promise_compiler.Precision.weight_bits]. *)

  val min_bits : ea:float -> ew:float -> pm:float -> (int, string) result
  (** Minimum activation bits meeting the Sakr bound at {!weight_bits}
      weight bits. Mirrors [Precision.min_activation_bits] (the compiler
      depends on this library, not vice versa); [test_lint] asserts the
      two agree. *)
end
