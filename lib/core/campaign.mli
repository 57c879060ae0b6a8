(** Fault-injection campaign: fault scenarios × fast benchmarks.

    For every (scenario, benchmark) cell the campaign measures
    - {e detection}: a BIST run ({!Promise_arch.Selftest}) on a probe
      machine carrying the injected faults, validated against the
      injection ground truth;
    - {e faulted accuracy}: the benchmark with the faults and no
      countermeasures;
    - {e recovered accuracy}: the benchmark re-run under the recovery
      the BIST report implies ({!Promise_compiler.Runtime.recovery_of_report}
      — lane sparing, bank exclusion, canary retry/fallback).

    The campaign is a {!Promise_core.Workload}: one baseline item per
    benchmark, then one item per benchmark × scenario cell. Every item
    is independent and deterministic (fixed seeds), so either executor
    — in-process or fleet, at any width, interrupted and resumed or not
    — assembles the same cells, bit for bit, and prints the same table
    plus summary rates. *)

type scenario = {
  sname : string;
  kind : string;  (** fault-kind tag, one per distinct model *)
  inject : Promise_arch.Machine.t -> unit;
  expected : (int * (Promise_arch.Selftest.kind -> bool)) list;
      (** (bank, predicate) pairs the BIST report must satisfy *)
}

val quick_scenarios : unit -> scenario list
(** Five scenarios, one per hard-fault kind: stuck lane, dead lanes,
    dead bank, ADC offset, dead ADC units. *)

val all_scenarios : unit -> scenario list
(** {!quick_scenarios} plus X-REG transients, swing drift and excess
    leakage — eight scenarios, eight distinct fault kinds. *)

type cell = {
  benchmark : string;
  scenario : string;
  detected : bool;
  baseline : float;
  faulted : float;
  recovered : float;
  residual : float;  (** baseline − recovered, clamped at 0 *)
  recovered_ok : bool;
}

val fast_benchmarks : unit -> Benchmarks.t list
(** Matched filter, template matching L1, k-NN L1. *)

type item
(** One item's result: a benchmark's baseline or a cell's detection
    and accuracies before its baseline is joined in. Plain data. *)

val workload :
  ?batch:int ->
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  unit ->
  item Promise_core.Workload.t
(** The campaign's items: one fault-free baseline per benchmark, then
    the benchmark-major benchmark × scenario grid. [batch] (default 1)
    scores that many batched noise realizations per query
    ({!Benchmarks}); batch 1 is bit-identical to the historical
    campaign. The digest covers the scenario names/kinds, the benchmark
    names, the residual budget, the batch width and the library
    version, so a checkpoint written at one batch width is a
    stale-checkpoint rejection at any other. *)

type cell_result = {
  r_benchmark : string;
  r_scenario : string;
  r_cell : (cell, Promise_core.Error.t) result;
      (** [Error] = the cell, or its benchmark's baseline, was
          quarantined; its siblings are unaffected *)
}

val assemble :
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  (item, Promise_core.Error.t) result array ->
  cell_result list
(** Join each cell with its benchmark's baseline ([residual =
    max 0 (baseline − recovered)]), in grid order. A failed baseline
    cascades an [Error] into all of its benchmark's cells. The results
    must come from [workload ~scenarios ~benchmarks ()]. *)

val print_header :
  Format.formatter ->
  quick:bool ->
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  unit
(** The campaign's title line; printed before the run starts. *)

val print : Format.formatter -> cell_result list -> unit
(** The table (QUARANTINED rows for [Error] cells), the detection /
    recovery / mean-residual summary over the completed cells, and a
    quarantine count when any cell was isolated. *)

val verdict : max_residual:int -> cell_result list -> (unit, string) result
(** The campaign's pass/fail gate: [Error] when the BIST missed a fault
    in any cell, or when more than [max_residual] cells end unrecovered
    (over the residual budget) or quarantined. *)
