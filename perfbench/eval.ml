(* eval-single and eval-mc: sequential, closed-loop passes of
   [Benchmarks.evaluate] — the promise-report path. A pass evaluates
   every benchmark of the workload once; the op is one pass. *)

open Common
module B = P.Benchmarks

(* What a pass computed, per benchmark: accuracy and the simulated
   Task count, cycles and Eq. 6 energy (pJ) from its machine's trace.
   Every pass at one seed must reproduce it bit for bit. *)
type result = { accuracy : float; tasks : int; cycles : int; energy_pj : float }

let run_pass ?tracer ~rid ~seed suite =
  let t0 = now_ns () in
  let one parent (b, batch) =
    let machine = ref None in
    let call _ =
      (b.B.evaluate ~seed ~batch
         ~prepare:(fun mc -> machine := Some mc)
         ~swings:(B.max_swings b) ())
        .B.promise_accuracy
    in
    let accuracy =
      match (tracer, parent) with
      | Some tr, Some parent ->
          Span.with_ tr ~parent ~rid ("eval.evaluate:" ^ b.B.short) call
      | _ -> call 0
    in
    (accuracy, Option.get !machine)
  in
  let raw =
    match tracer with
    | None -> List.map (one None) suite
    | Some tr ->
        Span.with_ tr ~rid "eval.pass" (fun id -> List.map (one (Some id)) suite)
  in
  let seconds = s_since t0 in
  let results =
    List.map
      (fun (accuracy, machine) ->
        let tr = Machine.trace machine in
        {
          accuracy;
          tasks = List.length tr.P.Arch.Trace.records;
          cycles = P.Arch.Trace.total_cycles tr;
          energy_pj = P.Energy.Model.total (P.Energy.Model.trace_energy tr);
        })
      raw
  in
  (seconds, results)

let totals results =
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let accuracy =
    List.fold_left (fun a r -> a +. r.accuracy) 0.0 results
    /. float_of_int (List.length results)
  in
  ( accuracy,
    sum (fun r -> r.tasks),
    sum (fun r -> r.cycles),
    List.fold_left (fun a r -> a +. r.energy_pj) 0.0 results )

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_results a b =
  List.for_all2
    (fun x y ->
      same_bits x.accuracy y.accuracy
      && x.tasks = y.tasks && x.cycles = y.cycles
      && same_bits x.energy_pj y.energy_pj)
    a b

(* Passes until the window closes (at least one). *)
let passes ?tracer ~seed ~seconds ~first_rid suite =
  let t0 = now_ns () in
  let rec go rid acc =
    let p = run_pass ?tracer ~rid ~seed suite in
    let acc = p :: acc in
    if s_since t0 >= seconds then List.rev acc else go (rid + 1) acc
  in
  go first_rid []

let check ~golden ~seed all =
  let _, first = List.hd all in
  let identical = List.for_all (fun (_, r) -> same_results first r) all in
  let accuracy, _, cycles, energy_pj = totals first in
  let g = golden in
  let sim_ok = cycles = g.Goldens.cycles && same_bits energy_pj g.Goldens.energy_pj in
  let acc_ok = seed <> 42 || same_bits accuracy g.Goldens.accuracy_seed42 in
  ( identical && sim_ok && acc_ok,
    Printf.sprintf
      "eval check: %d passes bit-identical=%b; per pass accuracy=%h \
       sim_cycles=%d sim_energy_pj=%h (golden cycles=%d energy=%h%s)"
      (List.length all) identical accuracy cycles energy_pj g.Goldens.cycles
      g.Goldens.energy_pj
      (if seed = 42 then Printf.sprintf " accuracy=%h" g.Goldens.accuracy_seed42 else "") )

let make ~golden ~suite ~seed =
  let t0 = now_ns () in
  let suite = suite () in
  let models_s = s_since t0 in
  let programs =
    List.map (fun (b, batch) -> (b.B.short, b.B.per_decision_program, batch)) suite
  in
  let measure ~seconds ~trace =
    let ms (s, _) = s *. 1e3 in
    match trace with
    | None ->
        let all = passes ~seed ~seconds ~first_rid:0 suite in
        let correct, note = check ~golden ~seed all in
        let times = List.map ms all in
        (* simulated Tasks per host second, per pass *)
        let rates =
          List.map
            (fun (s, r) ->
              let _, tasks, _, _ = totals r in
              float_of_int tasks /. s)
            all
        in
        {
          correct;
          attempted = List.length all;
          failed = 0;
          metrics =
            [
              m "op_p50_ms" "ms" (Stats.median times);
              m "throughput_per_s" "1/s" (throughput rates);
              m "peak_rss_mb" "MiB" (vm_hwm_mb ());
            ];
          notes =
            [
              Printf.sprintf "eval: %d passes, p50 %.1f ms, max %.1f ms" (List.length all)
                (Stats.median times) (Stats.percentile times 1.0);
              note;
            ];
        }
    | Some tracer ->
        let probe_s, half_s = split_window ~seconds in
        let arch = arch_probe ~seed ~budget:probe_s programs in
        let untraced, minor, major =
          gc_window (fun () -> passes ~seed ~seconds:half_s ~first_rid:0 suite)
        in
        let traced =
          passes ~tracer ~seed ~seconds:half_s ~first_rid:(List.length untraced)
            suite
        in
        let all = untraced @ traced in
        let correct, note = check ~golden ~seed all in
        let n = float_of_int (List.length untraced) in
        let op_traced_ms =
          Stats.median (List.map (fun d -> d /. 1e6) (Span.durations_ns tracer "eval.pass"))
        in
        let latency_ms = List.map ms untraced in
        let _, first = List.hd all in
        let _, tasks, cycles, energy_pj = totals first in
        (* Host time the pass would spend in the arch layer: each
           benchmark's executed Tasks at its replay cost per Task. *)
        let arch_ms =
          List.fold_left2
            (fun acc r (_, us) -> acc +. (float_of_int r.tasks *. us /. 1e3))
            0.0 first arch.us_per_task
        in
        {
          correct;
          attempted = List.length all;
          failed = 0;
          metrics =
            common_layers ~arch ~latency_ms ~op_traced_ms
              ~minor_words_per_op:(minor /. n) ~major_gcs_per_op:(major /. n)
              ~tasks_per_op:(float_of_int tasks)
              ~cycles_per_op:(float_of_int cycles)
              ~energy_nj_per_op:(energy_pj /. 1000.0)
            @ [ m "eval.runtime_share" "share" (1.0 -. (arch_ms /. Stats.median latency_ms)) ];
          notes = [ note ];
        }
  in
  { measure; teardown = ignore; models_s }

(* The Figure-10 suite at batch 1: [Runtime.run] → [Machine.execute]
   one decision at a time. *)
let single =
  make ~golden:Goldens.eval_single ~suite:(fun () ->
      List.map (fun b -> (b, 1)) (B.fig10_suite ()))

(* Monte-Carlo scoring: TM-L1 and kNN-L1 ride the [execute_batch] plane
   at batch 16; DNN-1, at batch 4, is a multi-node DAG that replays
   [Runtime.run] with sigmoid chaining. *)
let mc =
  make ~golden:Goldens.eval_mc ~suite:(fun () ->
      [ (B.template_l1 (), 16); (B.knn_l1 (), 16); (B.dnn B.D1, 4) ])
