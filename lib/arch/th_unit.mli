(** TH: the Class-4 digital thresholding block (paper §3.1, Fig. 5(c)).

    TH receives one digitized aggregate per Task iteration (after the
    cross-bank rail has combined per-bank partials), applies a digital
    pre-gain that undoes the analog gain staging (charge-share averaging
    and aSD headroom scaling — see DESIGN.md), groups [ACC_NUM + 1]
    consecutive samples (how long vectors spread over [X_PRD] word rows
    are summed), and applies one of the seven TH operations. Non-linear
    ops use piece-wise-linear approximations (paper cites [29]). *)

type config = {
  op : Promise_isa.Opcode.class4;
  acc_num : int;  (** group size is [acc_num + 1] *)
  threshold : float;  (** threshold in post-gain units *)
  gain : float;  (** digital pre-gain per sample *)
  des : Promise_isa.Opcode.destination;
}

(** A value leaving TH: [group_index] counts emitted groups from 0. *)
type emit = {
  value : float;
  group_index : int;
  des : Promise_isa.Opcode.destination;
}

type t

val create : config -> t

(** [push t sample] — feed one combined iteration sample; [Some emit]
    when a group completes and the op emits immediately (max/min emit
    only at {!finish}). *)
val push : t -> float -> emit option

(** [finish t] — end of Task: max/min emit their extremum; a partial
    accumulate group (shorter than [acc_num + 1]) is flushed. *)
val finish : t -> emit option

(** [ops_executed t] — Class-4 operations performed (for the trace). *)
val ops_executed : t -> int

(** [argext t] — for max/min, the (group index, value) of the running
    extremum — the "decision" output of e.g. template matching. *)
val argext : t -> (int * float) option

(** [pwl_sigmoid x] — the PLAN piece-wise-linear sigmoid approximation
    (max error < 0.019 vs the exact logistic). *)
val pwl_sigmoid : float -> float

(** [relu x]. *)
val relu : float -> float
