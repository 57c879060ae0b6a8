(** CONV-8b / CONV-OPT: the conventional digital ASIC baselines
    (paper Fig. 9, Eq. (5)).

    A CONV design pairs a standard SRAM with an algorithm-specific 8-bit
    (CONV-8b) or minimum-precision (CONV-OPT) synthesized datapath. Per
    bank access the SRAM fetches NCOL/(L·B) = 64/B words (column mux
    ratio L = 4) in T_SRAM = 2 cycles, and the datapath keeps up with the
    fetch rate, so f_CONV = (NCOL/L)/B / T_SRAM (Eq. 5). X is held in the
    pipeline register and reused — unlike PROMISE, which must re-read
    analog data every Task (the Linear Regression penalty of §6.2). *)

type variant = Conv_8b | Conv_opt of int  (** precision bits, 2..8 *)

val precision : variant -> int

(** Abstract workload: one decision of the kernel the PROMISE program
    implements, sized on the digital datapath. The benchmark supplies
    [macs] and [fetch_words] from its kernel's shape; [banks] is the
    PROMISE program's bank count ({!Promise_isa.Program.max_banks}), so
    both designs spread the same W over the same banks. *)
type workload = {
  macs : int;  (** datapath scalar ops *)
  fetch_words : int;
      (** W words read from SRAM; X is held in the pipeline register, so
          a multi-pass kernel fetches each W word once *)
  banks : int;  (** SRAM banks, matched to the PROMISE configuration *)
}

val t_sram_cycles : int
(** 2 (Table 3 digital read). *)

val words_per_access : precision:int -> int
(** 64 / B, at least 1. *)

val sram_access_energy_pj : float
(** 33 pJ per 64-bit bank access (Table 3 digital read). *)

val mac_energy_pj : precision:int -> float
(** 0.9 pJ at 8 bits, scaling as (B/8)^1.6 (DESIGN.md calibration). *)

val ctrl_pj_per_ns : float
(** Clock/control/dataflow power of the synthesized datapath, 3.4 pJ/ns. *)

(** [delay_ns v w] — fetch-bound execution time across [w.banks] banks. *)
val delay_ns : variant -> workload -> float

(** [throughput_macs_per_ns v w] — Eq. (5) × banks. *)
val throughput_macs_per_ns : variant -> workload -> float

(** [energy v w] — read / compute / leak / ctrl decomposition, comparable
    with {!Model.breakdown} for PROMISE (Figure 11). *)
val energy : variant -> workload -> Model.breakdown

(** [edp v w] — energy-delay product, pJ·ns. *)
val edp : variant -> workload -> float
