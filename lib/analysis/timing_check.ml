module Diag = Promise_core.Diag
module Timing = Promise_arch.Timing
module Scheduler = Promise_arch.Scheduler
module Params = Promise_arch.Params
module Adc = Promise_analog.Adc
module Leakage = Promise_analog.Leakage
open Promise_isa

(* The precision envelope: a held sample may droop by at most 3 ADC
   LSBs of full scale before digitization — past that, the energy the
   model charges for the sample (Table 3) bought fewer effective bits
   than the 8-bit datapath assumes. *)
let droop_tolerance = 3.0 *. Adc.lsb

let leakage_budget_ns ?(leakage_mult = 1.0) () =
  let rate = Leakage.capacitor_rate_per_ns *. leakage_mult in
  (* droop_factor ns = exp(-rate·ns); lose at most [droop_tolerance]:
     exp(-rate·ns) >= 1 - tol  ⇔  ns <= -ln(1 - tol)/rate *)
  -.Float.log (1.0 -. droop_tolerance) /. rate

(* Worst per-conversion wait for a free ADC unit, from the
   discrete-event schedule: the gap between a conversion's request
   (the previous stage's finish) and its actual start. *)
let worst_adc_stall ~adc_units task =
  let s = Scheduler.run ~ideal_adc:false ~adc_units task in
  let request : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let worst = ref 0 in
  List.iter
    (fun (e : Scheduler.event) ->
      match e.Scheduler.stage with
      | "S1" | "S2" -> Hashtbl.replace request e.Scheduler.iteration e.finish
      | "ADC" ->
          let req =
            Option.value ~default:e.Scheduler.start
              (Hashtbl.find_opt request e.Scheduler.iteration)
          in
          worst := max !worst (e.Scheduler.start - req)
      | _ -> ())
    s.Scheduler.events;
  !worst

let worst_dwell_cycles ?(adc_units = Adc.units_per_bank) (t : Task.t) =
  let base = t.Task.op_param.Op_param.acc_num * Timing.task_tp t in
  (* At the full complement the paper's throughput model treats the
     ADC as internally pipelined (stall-free); only a degraded bank
     adds conversion wait to the dwell. *)
  let stall =
    if adc_units < Adc.units_per_bank then worst_adc_stall ~adc_units t else 0
  in
  base + stall

let accumulates (t : Task.t) = t.Task.class2.Opcode.avd && Task.uses_adc t

let check_dwell ~leakage_mult ~adc_units i t =
  if not (accumulates t) then []
  else
    let dwell = worst_dwell_cycles ~adc_units t in
    let dwell_ns = float_of_int dwell *. Params.cycle_ns in
    let budget = leakage_budget_ns ~leakage_mult () in
    if dwell_ns > budget then
      [
        Diag.errorf ~code:"P-TIM-001" ~span:(Diag.Task i)
          "analog accumulation dwells %d cycles (%.1f ns) before its ADC \
           read but the leakage budget is %.1f ns (%.1f%% full-scale droop): \
           the held samples decay below 8-bit precision"
          dwell dwell_ns budget
          (droop_tolerance *. 100.0);
      ]
    else []

(* DES=acc chains: maximal runs of consecutive accumulate-destination
   tasks plus the draining task that follows (the drain reads the
   shared TH accumulator, so it is a member of the timing group). *)
let acc_chains tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let des_acc i =
    Opcode.equal_destination arr.(i).Task.op_param.Op_param.des Opcode.Des_acc
  in
  let chains = ref [] in
  let i = ref 0 in
  while !i < n do
    if des_acc !i then begin
      let start = !i in
      while !i < n && des_acc !i do
        incr i
      done;
      let stop = if !i < n then !i else !i - 1 in
      chains := (start, stop) :: !chains
    end
    else incr i
  done;
  List.rev !chains

let check_chains ~batch tasks =
  let arr = Array.of_list tasks in
  List.concat_map
    (fun (start, stop) ->
      let head = arr.(start) in
      let tp0 = Timing.task_tp head and it0 = Task.iterations head in
      let rec scan i =
        if i > stop then []
        else
          let t = arr.(i) in
          let tp = Timing.task_tp t and it = Task.iterations t in
          if tp <> tp0 || it <> it0 then
            let drift =
              (batch - 1) * abs ((it * tp) - (it0 * tp0))
            in
            Diag.errorf ~code:"P-TIM-002" ~span:(Diag.Task i)
              "accumulation-chain member runs at %d iterations × TP %d but \
               the chain head at %d × %d: after %d pipelined decisions the \
               partial sums drift %d cycles apart and the drain mixes \
               decisions"
              it tp it0 tp0 batch drift
            :: scan (i + 1)
          else scan (i + 1)
      in
      scan (start + 1))
    (acc_chains tasks)

let check_backlog ~adc_units i t =
  if adc_units >= Adc.units_per_bank || not (Task.uses_adc t) then []
  else
    let tp = Timing.task_tp t in
    let group = if t.Task.class2.Opcode.avd then t.Task.op_param.Op_param.acc_num + 1 else 1 in
    let cadence = group * tp in
    let d3 = Timing.class3_latency t.Task.class3 in
    if adc_units * cadence < d3 then
      [
        Diag.warningf ~code:"P-TIM-003" ~span:(Diag.Task i)
          "with %d of %d ADC units alive, conversions arrive every %d cycles \
           but %d units cover only one per %d: the pipeline stalls and held \
           samples droop"
          adc_units Adc.units_per_bank cadence adc_units
          ((d3 + adc_units - 1) / adc_units);
      ]
    else []

let check_program ?(leakage_mult = 1.0) ?(adc_units = Adc.units_per_bank)
    ?(batch = 2) tasks =
  if leakage_mult <= 0.0 then
    invalid_arg "Timing_check.check_program: leakage_mult must be > 0";
  if adc_units < 1 then
    invalid_arg "Timing_check.check_program: adc_units must be >= 1";
  if batch < 2 then
    invalid_arg "Timing_check.check_program: batch must be >= 2";
  let per_task =
    List.concat
      (List.mapi
         (fun i t ->
           check_dwell ~leakage_mult ~adc_units i t
           @ check_backlog ~adc_units i t)
         tasks)
  in
  per_task @ check_chains ~batch tasks

module For_tests = struct
  let leakage_budget_ns = leakage_budget_ns
end
