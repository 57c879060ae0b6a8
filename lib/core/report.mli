(** Reproduction of every table and figure of the paper's evaluation
    (§5–§6). Each section prints the measured values next to the
    published ones; EXPERIMENTS.md records a snapshot.

    All sections write to the given formatter and are deterministic.
    The expensive state (trained benchmarks, swing optimizations) is
    computed once and memoized across sections. *)

(** [table1 ppf] — the ML-algorithm kernel inventory (Table 1). *)
val table1 : Format.formatter -> unit

(** [table3 ppf] — energy and delay per operation (Table 3). *)
val table3 : Format.formatter -> unit

(** [eq3_table ppf] — f(SWING) and the Eq. (3) bit-precision → minimum
    swing mapping over layer widths. *)
val eq3_table : Format.formatter -> unit

(** [isa_demo ppf] — the §3.4 template-matching Task encoded to binary
    and disassembled (Figure 5 walk-through). *)
val isa_demo : Format.formatter -> unit

(** [fig10a ppf] — speed-up of PROMISE over CONV-8b / CONV-OPT for the
    eight benchmarks (Figure 10(a); paper band 1.4–3.4×). *)
val fig10a : Format.formatter -> unit

(** [fig10b ppf] — energy ratio CONV/PROMISE (Figure 10(b); paper band
    3.4–5.5× vs CONV-OPT) and the EDP improvement (4.7–12.6×). *)
val fig10b : Format.formatter -> unit

(** [fig11 ppf] — READ/COMPUTATION/CTRL energy breakdown normalized to
    SVM on CONV-8b (Figure 11). *)
val fig11 : Format.formatter -> unit

(** [fig12 ppf] — compiler swing optimization at p_m = 1%:
    optimized vs full-precision energy and the search-space size per
    kernel (Figure 12; paper savings 4–25%, geometric mean 17%). Slow:
    sweeps all eight swings for the six single-task kernels and trains
    the three DNNs. *)
val fig12 : Format.formatter -> unit

(** [table2 ppf] — the benchmark inventory with the optimal swings at
    p_m = 1% (Table 2). Shares the memoized fig12 optimizations. *)
val table2 : Format.formatter -> unit

(** [soa_knn ppf] — §6.2 comparison with the 14 nm k-NN accelerator [7],
    ITRS-scaled to 65 nm. *)
val soa_knn : Format.formatter -> unit

(** [soa_dnn ppf] — §6.2 comparison with the 28 nm DNN engine [6]
    (raw, as in the paper). *)
val soa_dnn : Format.formatter -> unit

(** [cm_compare ppf] — §6.2 comparison with the original fixed-function
    compute memory: pipelining speed-up (up to 1.9×) and net energy
    saving (~5.5%). *)
val cm_compare : Format.formatter -> unit

(** [ablation_tp ppf] — the §3.2 operational-diversity ablation: cycles
    at per-program TP vs a worst-case TP accommodating every ISA op
    (up to 2× throughput loss). *)
val ablation_tp : Format.formatter -> unit

(** [ext_ablation ppf] — pricing the ISA extensions the paper omitted
    (§3.3): what element-wise write-back / shuffle-compare would do to
    the worst-case TP of every benchmark. *)
val ext_ablation : Format.formatter -> unit

(** [adc_fidelity ppf] — ideal vs unit-accurate ADC scheduling: the
    throughput-model inconsistency quantified (EXPERIMENTS.md,
    "Fidelity notes"). *)
val adc_fidelity : Format.formatter -> unit

(** [size_sweep ppf] — per-decision cost scaling across the Table-2
    problem-size variants (matched filter N, template/k-NN image
    dimensions). *)
val size_sweep : Format.formatter -> unit

(** [error_sources ppf] — accuracy under each behavioral error source
    enabled individually (noise / LUT / leakage), at a low swing. *)
val error_sources : Format.formatter -> unit

(** [dma_overhead ppf] — per-decision X-staging traffic the paper does
    not price (Fig. 2(b) DMA), and its delay overhead. *)
val dma_overhead : Format.formatter -> unit

(** [validation ppf] — the Fig.-8 three-level validation self-check
    ({!Validation.report}). *)
val validation : Format.formatter -> unit

(** [resilience ppf] — the full fault-injection campaign
    ({!Campaign}): scenario × benchmark detection / recovery table.
    Slow. *)
val resilience : Format.formatter -> unit

(** [yield_analysis ppf] — accuracy distribution across
    process-variation corners (noise seeds = dies) at reduced swings:
    the die-to-die view behind Eq. (3)'s 99% confidence margin. Slow. *)
val yield_analysis : Format.formatter -> unit

(** [sections] — (name, slow, printer) in report order, for CLI
    selection. *)
val sections : (string * bool * (Format.formatter -> unit)) list

val quick_names : unit -> string list
(** Names of the non-slow sections, in print order. *)

val all_names : unit -> string list

val known_names : Format.formatter -> string list -> string list
(** [names] without the unknown ones, each reported on [ppf] with the
    list of available sections. *)

(** {2 The report as a workload} *)

val workload : string list -> string Promise_core.Workload.t
(** One item per named section (in order), rendering it to a string.
    The digest covers the ordered names. Raises [Invalid_argument] on
    an unknown name: filter with {!known_names} first. *)

val print :
  Format.formatter ->
  string list ->
  (string, Promise_core.Error.t) result array ->
  int
(** [print ppf names results] prints the rendered sections of
    [workload names] in order, a [SECTION QUARANTINED] block in place
    of each [Error], and returns the number of those. *)
