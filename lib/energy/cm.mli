(** CM: the original fixed-function compute-memory baseline ([9]).

    CM executes the same mixed-signal operations as PROMISE but without
    the analog pipeline: each iteration's stages run back-to-back
    (latency = Class-1 + Class-2 delay), and without a programmable
    controller (a slightly cheaper fixed-function CTRL, 4.3 pJ/ns). The
    paper finds PROMISE up to 1.9× faster (pipelining beats operational
    diversity) and ~5.5% lower energy (it sleeps sooner, cutting
    leakage+CTRL).

    Both comparisons are steady-state (fill amortized across decisions),
    as the §6.2 comparison report prints them. *)

(** [speedup_vs_cm_steady p] — CM cycles over PROMISE cycles, >1 =
    PROMISE faster. *)
val speedup_vs_cm_steady : Promise_isa.Program.t -> float

(** [energy_saving_vs_cm_steady p] — fractional PROMISE saving, e.g.
    0.055. *)
val energy_saving_vs_cm_steady : Promise_isa.Program.t -> float

(** {2 Test hooks} *)

module For_tests : sig
  (** [program_steady_cycles p] — Σ iterations × (T_S1 + T_S2). *)
  val program_steady_cycles : Promise_isa.Program.t -> int
end
