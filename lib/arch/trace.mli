(** Execution traces: per-task operation/cycle accounting.

    The energy model (lib/energy) consumes these records to evaluate
    Eq. (6) of the paper without re-simulating. *)

type task_record = {
  task : Promise_isa.Task.t;
  iterations : int;
  banks : int;
  tp : int;  (** pipeline clock period used, cycles *)
  fill_cycles : int;
  cycles : int;  (** total task duration, cycles *)
  adc_conversions : int;  (** per bank *)
  crossbank_transfers : int;  (** 8-bit words moved on the rail *)
  th_ops : int;  (** Class-4 operations executed (on bank 0) *)
  stall_cycles : int;
      (** excess ADC stalls attributable to disabled ADC units
          ({!Faults.with_dead_adc_units}); 0 on a healthy group *)
}

type t = {
  mutable records : task_record list;  (** newest first *)
  mutable total_cycles : int;
}

val create : unit -> t
val record : t -> task_record -> unit

val records_in_order : t -> task_record list
(** Oldest first. *)

val total_cycles : t -> int

(** Wall-clock time in ns ([total_cycles * cycle_ns]). *)
val elapsed_ns : t -> float

(** [to_csv t] — one line per task record (oldest first) with a header:
    [class1,class2,class4,swing,iterations,banks,tp,fill,cycles,adc,rail,th,stalls].
    For offline analysis/plotting of executions. *)
val to_csv : t -> string
