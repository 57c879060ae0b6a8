(** Reproduction of every table and figure of the paper's evaluation
    (§5–§6). Each section prints the measured values next to the
    published ones; EXPERIMENTS.md records a snapshot.

    All sections write to the given formatter and are deterministic.
    The expensive state (trained benchmarks, swing optimizations) is
    computed once and memoized across sections. The sections, by the
    name [promise-report] selects them with, in report order:
    - [validation]: the Fig.-8 three-level self-check ({!Validation}).
    - [resilience] (slow): the fault-injection campaign ({!Campaign}).
    - [table1]: the ML-algorithm kernel inventory (Table 1).
    - [table3]: energy and delay per operation (Table 3).
    - [eq3]: f(SWING) and the Eq. (3) bit-precision → minimum swing map.
    - [isa]: the §3.4 template-matching Task encoded and disassembled.
    - [fig10a], [fig10b]: speed-up and energy ratio over CONV-8b /
      CONV-OPT, with the EDP improvement (Figure 10).
    - [fig11]: READ/COMPUTATION/CTRL energy breakdown (Figure 11).
    - [fig12] (slow): the compiler swing optimization at p_m = 1 %
      (Figure 12); [table2] (slow) shares its optimizations.
    - [soa_knn], [soa_dnn] (slow): the §6.2 state-of-the-art comparisons.
    - [cm]: the §6.2 comparison with the fixed-function compute memory.
    - [ablation]: per-program TP vs a worst-case TP (§3.2).
    - [extensions]: the omitted §3.3 ISA extensions priced by worst-case TP.
    - [adc_fidelity]: ideal vs unit-accurate ADC scheduling.
    - [size_sweep]: per-decision cost across the Table-2 size variants.
    - [error_sources]: accuracy under each behavioral error source alone.
    - [dma]: the per-decision X-staging traffic the paper does not price.
    - [yield] (slow): accuracy across process-variation corners. *)

val quick_names : unit -> string list
(** Names of the non-slow sections, in print order. *)

val all_names : unit -> string list

(** {2 The report as a job} *)

val job :
  string list ->
  (string Promise_core.Workload.job, Promise_core.Error.t) result
(** The named sections, in order, one workload item each: an item
    renders its section to a string, and the digest covers the ordered
    names. The render prints the rendered sections in order, a
    [SECTION QUARANTINED] block in place of each [Error], and fails its
    verdict when any section was quarantined. The job has no header.
    An unknown name is an [Invalid_operand] error that names every
    unknown section and lists the available ones. *)

(** {2 Test hooks} *)

module For_tests : sig
  (** [sections] — (name, slow, printer) in report order. *)
  val sections : (string * bool * (Format.formatter -> unit)) list
end
