module B = Benchmarks
module Machine = Promise_arch.Machine
module Bank = Promise_arch.Bank
module Faults = Promise_arch.Faults
module Selftest = Promise_arch.Selftest
module Runtime = Promise_compiler.Runtime
module E = Promise_core.Error

let ok_exn = function Ok v -> v | Error e -> invalid_arg (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sname : string;
  kind : string;  (** fault-kind tag, one per distinct model *)
  inject : Machine.t -> unit;
      (** set the fault descriptors on a machine's banks (any size ≥ 2) *)
  expected : (int * (Selftest.kind -> bool)) list;
      (** ground truth: (bank, finding predicate) the BIST must report *)
}

let set m bank faults =
  if bank < Machine.n_banks m then Bank.set_faults (Machine.bank m bank) faults

let scenario_stuck_lane =
  let f = ok_exn (Faults.with_stuck_lane Faults.none ~lane:5 ~code:64) in
  {
    sname = "stuck-lane b0/l5=64";
    kind = "stuck-lane";
    inject = (fun m -> set m 0 f);
    expected =
      [
        ( 0,
          function
          | Selftest.Stuck_lane { lane = 5; code } -> abs (code - 64) <= 2
          | _ -> false );
      ];
  }

let scenario_dead_lanes =
  let f =
    ok_exn
      (Result.bind
         (Faults.with_dead_lane Faults.none ~lane:3)
         (Faults.with_dead_lane ~lane:17))
  in
  {
    sname = "dead-lanes b0/l3,l17";
    kind = "dead-lane";
    inject = (fun m -> set m 0 f);
    expected =
      [
        (0, function Selftest.Dead_lane { lane = 3 } -> true | _ -> false);
        (0, function Selftest.Dead_lane { lane = 17 } -> true | _ -> false);
      ];
  }

let scenario_dead_bank =
  {
    sname = "dead-bank b1";
    kind = "dead-bank";
    inject = (fun m -> set m 1 (Faults.with_dead_bank Faults.none));
    expected = [ (1, function Selftest.Dead_bank -> true | _ -> false) ];
  }

let scenario_adc_offset =
  {
    sname = "adc-offset b0/+0.08";
    kind = "adc-offset";
    inject = (fun m -> set m 0 (Faults.with_adc_offset Faults.none 0.08));
    expected =
      [
        ( 0,
          function
          | Selftest.Adc_offset { offset } -> Float.abs (offset -. 0.08) < 0.04
          | _ -> false );
      ];
  }

let scenario_dead_adc =
  let f = ok_exn (Faults.with_dead_adc_units Faults.none 6) in
  {
    sname = "dead-adc b0/6of8";
    kind = "dead-adc";
    inject = (fun m -> set m 0 f);
    expected = [ (0, function Selftest.Dead_adc _ -> true | _ -> false) ];
  }

let scenario_xreg_transient =
  let f = ok_exn (Faults.with_xreg_flips Faults.none ~seed:97 ~rate:0.02) in
  {
    sname = "xreg-flips b0/2%";
    kind = "xreg-transient";
    inject = (fun m -> set m 0 f);
    expected =
      [
        ( 0,
          function
          | Selftest.Xreg_transient { events; _ } -> events >= 2
          | _ -> false );
      ];
  }

let scenario_swing_drift =
  let f = ok_exn (Faults.with_swing_drift Faults.none 4) in
  {
    sname = "swing-drift b0/-4";
    kind = "swing-drift";
    inject = (fun m -> set m 0 f);
    expected =
      [ (0, function Selftest.Swing_degraded _ -> true | _ -> false) ];
  }

let scenario_leakage =
  let f = ok_exn (Faults.with_leakage_mult Faults.none 8.0) in
  {
    sname = "leakage b0/x8";
    kind = "excess-leakage";
    inject = (fun m -> set m 0 f);
    expected =
      [ (0, function Selftest.Excess_leakage _ -> true | _ -> false) ];
  }

let quick_scenarios () =
  [
    scenario_stuck_lane;
    scenario_dead_lanes;
    scenario_dead_bank;
    scenario_adc_offset;
    scenario_dead_adc;
  ]

let all_scenarios () =
  quick_scenarios ()
  @ [ scenario_xreg_transient; scenario_swing_drift; scenario_leakage ]

(* ------------------------------------------------------------------ *)
(* One campaign cell: scenario × benchmark                             *)
(* ------------------------------------------------------------------ *)

type cell = {
  benchmark : string;
  scenario : string;
  detected : bool;  (** BIST reported every injected fault *)
  baseline : float;  (** fault-free accuracy *)
  faulted : float;  (** accuracy with the fault, no recovery *)
  recovered : float;  (** accuracy with BIST-derived recovery *)
  residual : float;  (** baseline − recovered, clamped at 0 *)
  recovered_ok : bool;  (** residual within the campaign budget *)
}

(* The recovery budget: residual accuracy loss a degraded part may
   keep. Matches the loosest application-level validation budget. *)
let residual_budget = 0.06

(* BIST probe machine: 2 banks cover every scenario's injection sites. *)
let probe_report scenario =
  let m =
    Machine.create
      { Machine.banks = 2; profile = Bank.Silicon; noise_seed = Some 1234 }
  in
  scenario.inject m;
  ok_exn (Selftest.run m)

let detected_in report scenario =
  List.for_all
    (fun (bank, pred) ->
      List.exists pred (Selftest.findings_for report ~bank))
    scenario.expected

(* Machine size for the recovered run: lane sparing shrinks per-bank
   capacity, and excluding banks must leave at least one whole clean
   bank group. *)
let recovered_banks (b : B.t) (r : Runtime.recovery) =
  let max_lanes =
    max 1 (Promise_arch.Params.lanes - List.length r.Runtime.spared_lanes)
  in
  let base = Runtime.required_banks ~max_lanes b.B.graph in
  if r.Runtime.excluded_banks = [] then base else 2 * base

let fast_benchmarks () = [ B.matched_filter (); B.template_l1 (); B.knn_l1 () ]

(* ------------------------------------------------------------------ *)
(* The campaign as a workload                                          *)
(* ------------------------------------------------------------------ *)

type item =
  | Baseline of float
  | Probe of { detected : bool; faulted : float; recovered : float }

let baseline ~batch (b : B.t) =
  (b.B.evaluate ~batch ~swings:(B.max_swings b) ()).B.promise_accuracy

let probe ~batch ~scenario (b : B.t) =
  let swings = B.max_swings b in
  let faulted =
    (b.B.evaluate ~prepare:scenario.inject ~batch ~swings ()).B.promise_accuracy
  in
  let report = probe_report scenario in
  let recovery = Runtime.recovery_of_report report in
  let recovered =
    (b.B.evaluate ~prepare:scenario.inject ~recovery
       ~banks:(recovered_banks b recovery) ~batch ~swings ())
      .B.promise_accuracy
  in
  Probe { detected = detected_in report scenario; faulted; recovered }

(* [batch] is part of the digest: a checkpoint (or fleet shard) written
   at one batch width holds different values than another, so resuming
   it at a different width must be a stale-checkpoint rejection, never
   a silent mix. *)
let config_digest ~batch ~scenarios ~benchmarks =
  Promise_core.Checkpoint.digest_of_config ~kind:"campaign-cells"
    ((Printf.sprintf "budget=%.4f" residual_budget
     :: Printf.sprintf "batch=%d" batch
     :: List.map (fun s -> s.sname ^ "/" ^ s.kind) scenarios)
    @ List.map (fun (b : B.t) -> b.B.short) benchmarks)

(* Every item is independent (each evaluation creates its own machines
   from fixed seeds): a grid cell does not wait for its baseline, which
   is joined in only when the cells are assembled. *)
let workload ?(batch = 1) ~scenarios ~benchmarks () =
  let barr = Array.of_list benchmarks and sarr = Array.of_list scenarios in
  let nb = Array.length barr and ns = Array.length sarr in
  let grid i = ((i - nb) / ns, (i - nb) mod ns) in
  {
    Promise_core.Workload.kind = "campaign";
    digest = config_digest ~batch ~scenarios ~benchmarks;
    labels =
      Array.init
        (nb + (nb * ns))
        (fun i ->
          if i < nb then "baseline:" ^ barr.(i).B.short
          else
            let bi, si = grid i in
            Printf.sprintf "cell:%s:%s" barr.(bi).B.short sarr.(si).sname);
    run =
      (fun i ->
        if i < nb then Baseline (baseline ~batch barr.(i))
        else
          let bi, si = grid i in
          probe ~batch ~scenario:sarr.(si) barr.(bi));
  }

type cell_result = {
  r_benchmark : string;
  r_scenario : string;
  r_cell : (cell, E.t) result;  (** [Error] = the cell was quarantined *)
}

let assemble ~scenarios ~benchmarks results =
  let nb = List.length benchmarks and ns = List.length scenarios in
  List.concat
    (List.mapi
       (fun bi (b : B.t) ->
         List.mapi
           (fun si s ->
             let r_cell =
               match (results.(bi), results.(nb + (bi * ns) + si)) with
               | Error e, _ ->
                   (* a quarantined baseline condemns its benchmark's cells *)
                   Error (E.with_context e [ ("cascade", "baseline quarantined") ])
               | _, Error e -> Error e
               | Ok (Baseline baseline), Ok (Probe { detected; faulted; recovered })
                 ->
                   let residual = Float.max 0.0 (baseline -. recovered) in
                   Ok
                     {
                       benchmark = b.B.short;
                       scenario = s.sname;
                       detected;
                       baseline;
                       faulted;
                       recovered;
                       residual;
                       recovered_ok = residual <= residual_budget;
                     }
               | _ -> invalid_arg "Campaign.assemble: results of another workload"
             in
             { r_benchmark = b.B.short; r_scenario = s.sname; r_cell })
           scenarios)
       benchmarks)

(* ------------------------------------------------------------------ *)
(* Output and verdict                                                  *)
(* ------------------------------------------------------------------ *)

let print_header ppf ~quick ~scenarios ~benchmarks =
  Format.fprintf ppf
    "@.== Fault-injection campaign (%d scenarios x %d benchmarks%s) ==@."
    (List.length scenarios) (List.length benchmarks)
    (if quick then ", quick" else "")

let ok_cells results = List.filter_map (fun r -> Result.to_option r.r_cell) results

let print ppf results =
  Format.fprintf ppf
    "   %-20s %-14s %-9s %8s %8s %8s %8s  %s@." "scenario" "benchmark"
    "detected" "baseline" "faulted" "recover" "residual" "ok";
  List.iter
    (fun r ->
      match r.r_cell with
      | Ok c ->
          Format.fprintf ppf
            "   %-20s %-14s %-9s %8.3f %8.3f %8.3f %8.3f  %s@." c.scenario
            c.benchmark
            (if c.detected then "yes" else "NO")
            c.baseline c.faulted c.recovered c.residual
            (if c.recovered_ok then "ok" else "FAIL")
      | Error e ->
          Format.fprintf ppf "   %-20s %-14s QUARANTINED  %s@." r.r_scenario
            r.r_benchmark (E.to_string e))
    results;
  let ok = ok_cells results in
  let n = List.length ok in
  if n > 0 then begin
    let rate p =
      float_of_int (List.length (List.filter p ok)) /. float_of_int n
    in
    let mean_residual =
      List.fold_left (fun a c -> a +. c.residual) 0.0 ok /. float_of_int n
    in
    Format.fprintf ppf
      "   detection rate %.0f%%   recovery rate %.0f%%   mean residual loss \
       %.3f (budget %.2f)@."
      (100.0 *. rate (fun c -> c.detected))
      (100.0 *. rate (fun c -> c.recovered_ok))
      mean_residual residual_budget
  end;
  let quarantined = List.length results - n in
  if quarantined > 0 then
    Format.fprintf ppf "   quarantined cells: %d of %d@." quarantined
      (List.length results)

let verdict ~max_residual results =
  let ok = ok_cells results in
  let count p = List.length (List.filter p ok) in
  let undetected = count (fun c -> not c.detected) in
  let residual_errors =
    List.length results - List.length ok + count (fun c -> not c.recovered_ok)
  in
  if undetected > 0 then
    Error (Printf.sprintf "campaign missed faults in %d cells" undetected)
  else if residual_errors > max_residual then
    Error
      (Printf.sprintf
         "%d residual (unrecovered or quarantined) errors exceed \
          --max-residual %d"
         residual_errors max_residual)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* The campaign as a job                                               *)
(* ------------------------------------------------------------------ *)

let job_over ?batch ~quick ~max_residual ~scenarios ~benchmarks () =
  {
    Promise_core.Workload.workload = workload ?batch ~scenarios ~benchmarks ();
    header = (fun ppf -> print_header ppf ~quick ~scenarios ~benchmarks);
    render =
      (fun ppf results ->
        let cells = assemble ~scenarios ~benchmarks results in
        print ppf cells;
        verdict ~max_residual cells);
  }

let job ?batch ~quick ~max_residual () =
  job_over ?batch ~quick ~max_residual
    ~scenarios:(if quick then quick_scenarios () else all_scenarios ())
    ~benchmarks:(fast_benchmarks ()) ()

module For_tests = struct
  let quick_scenarios = quick_scenarios

  let job ?batch ~scenarios ~benchmarks () =
    job_over ?batch ~quick:false ~max_residual:0 ~scenarios ~benchmarks ()

  let verdict = verdict
end
