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

    The campaign is one {!Promise_core.Workload.job}: one baseline item
    per benchmark, then one item per benchmark × scenario cell. Every item
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

type item
(** One item's result: a benchmark's baseline or a cell's detection
    and accuracies before its baseline is joined in. Plain data. *)

type cell_result = {
  r_benchmark : string;
  r_scenario : string;
  r_cell : (cell, Promise_core.Error.t) result;
      (** [Error] = the cell, or its benchmark's baseline, was
          quarantined; its siblings are unaffected *)
}

val job :
  ?batch:int -> quick:bool -> max_residual:int -> unit -> item Promise_core.Workload.job
(** The campaign over the matched filter, template matching L1 and k-NN
    L1: the five hard-fault scenarios (stuck lane, dead lanes, dead
    bank, ADC offset, dead ADC units) when [quick], all eight (plus
    X-REG transients, swing drift and excess leakage) otherwise.

    Its workload holds one fault-free baseline item per benchmark, then
    the benchmark-major benchmark × scenario grid. [batch] (default 1)
    scores that many batched noise realizations per query
    ({!Benchmarks}); batch 1 is bit-identical to the historical
    campaign. The digest covers the scenario names/kinds, the benchmark
    names, the residual budget, the batch width and the library
    version, so a checkpoint written at one batch width is a
    stale-checkpoint rejection at any other.

    Its header is the campaign's title line. Its render joins each cell
    with its benchmark's baseline ([residual = max 0 (baseline −
    recovered)]; a quarantined baseline cascades an [Error] into all of
    its benchmark's cells), prints the table (QUARANTINED rows for
    [Error] cells), the detection / recovery / mean-residual summary
    over the completed cells and a quarantine count when any cell was
    isolated. Its verdict is [Error] when the BIST missed a fault in
    any cell, or when more than [max_residual] cells end unrecovered
    (over the residual budget) or quarantined. *)

(** {2 Test hooks} *)

module For_tests : sig
  val quick_scenarios : unit -> scenario list
  (** The five hard-fault scenarios of a quick campaign. *)

  val job :
    ?batch:int ->
    scenarios:scenario list ->
    benchmarks:Benchmarks.t list ->
    unit ->
    item Promise_core.Workload.job
  (** The top-level [job] over any scenario and benchmark subset, at
      [max_residual] 0. *)

  val verdict : max_residual:int -> cell_result list -> (unit, string) result
  (** The render's verdict on assembled cells. *)
end
