(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Promise.Report), then runs Bechamel
   micro-benchmarks over the building blocks — one group per
   table/figure so the wall-clock cost of each reproduction path is
   also measured. *)

module P = Promise
module Dsl = P.Ir.Dsl

let ppf = Format.std_formatter

(* Every elapsed interval below is measured on the monotonic clock —
   an NTP step mid-run must not corrupt a reported duration. *)
let now_s () = Int64.to_float (P.Clock.monotonic_ns ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let template_task =
  P.Isa.Task.make ~rpt_num:126 ~multi_bank:2
    ~class1:P.Isa.Opcode.C1_asubt
    ~class2:{ P.Isa.Opcode.asd = P.Isa.Opcode.Asd_absolute; avd = true }
    ~class3:P.Isa.Opcode.C3_adc ~class4:P.Isa.Opcode.C4_min ()

let template_asm = P.Isa.Asm.print_task template_task
let template_bits = P.Isa.Encode.to_int template_task

let tm_kernel =
  Dsl.kernel ~name:"tm"
    ~decls:
      [
        Dsl.matrix "W" ~rows:64 ~cols:256;
        Dsl.vector "x" ~len:256;
        Dsl.out_vector "out" ~len:64;
      ]
    [
      Dsl.for_store ~iterations:64 ~out:"out" (Dsl.l1_distance "W" "x");
      Dsl.argmin "out";
    ]

let tm_graph =
  match P.compile tm_kernel with Ok g -> g | Error e -> failwith (P.Error.to_string e)

let bench_machine = P.Arch.Machine.create P.Arch.Machine.default_config

let bench_bank_iteration =
  let bank = P.Arch.Machine.bank bench_machine 0 in
  let task =
    P.Isa.Task.make ~class1:P.Isa.Opcode.C1_aread
      ~class2:{ P.Isa.Opcode.asd = P.Isa.Opcode.Asd_sign_mult; avd = true }
      ~class3:P.Isa.Opcode.C3_adc ~class4:P.Isa.Opcode.C4_accumulate ()
  in
  fun () ->
    P.Arch.Bank.run_iteration bank ~task ~iteration:0 ~active_lanes:128
      ~adc_gain:8.0

let tm_rng = P.Analog.Rng.create 99

let tm_data =
  let candidates =
    Array.init 64 (fun _ ->
        Array.init 256 (fun _ -> P.Analog.Rng.uniform tm_rng ~lo:(-0.9) ~hi:0.9))
  in
  let x =
    Array.init 256 (fun _ -> P.Analog.Rng.uniform tm_rng ~lo:(-0.9) ~hi:0.9)
  in
  (candidates, x)

let run_tm_once machine =
  let candidates, x = tm_data in
  let b = P.Compiler.Runtime.bindings () in
  P.Compiler.Runtime.bind_matrix b "W" candidates;
  P.Compiler.Runtime.bind_vector b "x" x;
  match P.Compiler.Runtime.run ~machine tm_graph b with
  | Ok r -> r
  | Error e -> failwith (P.Error.to_string e)

let tm_silicon_machine =
  P.Arch.Machine.create
    { P.Arch.Machine.banks = 2; profile = P.Arch.Bank.Silicon; noise_seed = Some 5 }

let micro_tests =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* figure 5: ISA paths *)
    t "isa/encode" (fun () -> P.Isa.Encode.to_int template_task);
    t "isa/decode" (fun () -> P.Isa.Encode.of_int template_bits);
    t "isa/asm-print" (fun () -> P.Isa.Asm.print_task template_task);
    t "isa/asm-parse" (fun () -> P.Isa.Asm.parse_task template_asm);
    (* fig 10/11: the simulator inner loops *)
    t "arch/bank-iteration-128" bench_bank_iteration;
    t "arch/tm-decision" (fun () -> run_tm_once tm_silicon_machine);
    (* fig 12: compiler paths *)
    t "compiler/frontend+match" (fun () -> P.compile tm_kernel);
    t "compiler/codegen" (fun () -> P.Compiler.Pipeline.codegen tm_graph);
    t "compiler/eq3-swing" (fun () ->
        P.Compiler.Swing_opt.min_swing_for ~bits:4 ~n:784);
    (* energy model evaluation *)
    t "energy/task-energy" (fun () -> P.Energy.Model.task_energy template_task);
  ]

let run_micro () =
  let open Bechamel in
  Format.fprintf ppf "@.== Bechamel micro-benchmarks ==@.";
  Format.fprintf ppf "   (ns per run, OLS estimate over the monotonic clock)@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          Format.fprintf ppf "   %-32s %12.1f ns/run@." name
            (Analyze.OLS.estimates est
            |> Option.map (function v :: _ -> v | [] -> nan)
            |> Option.value ~default:nan))
        analyzed)
    micro_tests

(* ------------------------------------------------------------------ *)
(* Parallel-execution macro-benchmark                                    *)
(* ------------------------------------------------------------------ *)

(* Times the same campaign workload at jobs=1 and jobs=N and proves the
   outputs identical. The campaign is not memoized, so both timed runs
   do the full simulation; a warmup run populates the compiled-task
   cache first so neither timed run pays compilation.

   The measured job count is clamped to the host's usable cores:
   oversubscribed domains only add scheduling noise, and the reported
   "speedup" then understates the machine (the PR-2 anomaly). The JSON
   records both the requested and the effective count so CI artifacts
   from small runners stay interpretable. *)
let run_parallel_bench ~jobs:requested =
  let cores = Domain.recommended_domain_count () in
  let jobs = max 1 (min requested cores) in
  let scenarios = P.Campaign.quick_scenarios () in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  let workload = P.Campaign.workload ~scenarios ~benchmarks () in
  let run ~jobs =
    P.Pool.with_pool ~jobs (fun pool ->
        let t0 = now_s () in
        let outcome = P.Workload.run_local ~pool P.Supervisor.plain workload in
        (outcome, now_s () -. t0))
  in
  ignore (run ~jobs:1);
  let out1, t1 = run ~jobs:1 in
  let out_n, tn = run ~jobs in
  let identical = out1 = out_n in
  let speedup = t1 /. tn in
  let note =
    if jobs < requested then
      Printf.sprintf
        ",\n  \"note\": \"requested %d jobs clamped to %d usable cores\""
        requested cores
    else ""
  in
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"fault campaign, %d quick scenarios x matched filter \
     (%d cells)\",\n\
    \  \"host_cores\": %d,\n\
    \  \"requested_jobs\": %d,\n\
    \  \"effective_jobs\": %d,\n\
    \  \"baseline\": { \"jobs\": 1, \"seconds\": %.3f },\n\
    \  \"parallel\": { \"jobs\": %d, \"seconds\": %.3f },\n\
    \  \"speedup\": %.3f,\n\
    \  \"identical_output\": %b%s\n\
     }\n"
    (List.length scenarios)
    (List.length scenarios * List.length benchmarks)
    cores requested jobs t1 jobs
    tn speedup identical note;
  close_out oc;
  Format.fprintf ppf
    "parallel bench: jobs=1 %.3fs, jobs=%d %.3fs (requested %d, host cores \
     %d), speedup %.2fx, identical_output=%b -> BENCH_parallel.json@."
    t1 jobs tn requested cores speedup identical;
  if not identical then (
    Format.fprintf ppf "FAIL: parallel output differs from sequential@.";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Fused-kernel macro-benchmark                                          *)
(* ------------------------------------------------------------------ *)

(* Replays the matched-filter per-decision ISA program on two machines
   built from the same seed and data image — one stepping the scalar
   reference datapath, one the fused compiled kernels — and reports
   single-thread task throughput, Gc minor words per task, and a full
   output comparison (bit-identity makes the two runs produce the same
   emission stream draw for draw). *)
(* Deterministic data image shared by the kernels and batch benches:
   every bank row and X-REG slot filled from one seeded stream, so twin
   machines built from the same seed replay identical decisions. *)
let fill_machine machine =
  let lanes = P.Arch.Params.lanes in
  let rng = P.Analog.Rng.create 7 in
  let codes () = Array.init lanes (fun _ -> P.Analog.Rng.int rng 255 - 128) in
  for bi = 0 to P.Arch.Machine.n_banks machine - 1 do
    let bank = P.Arch.Machine.bank machine bi in
    for row = 0 to 63 do
      P.Arch.Bitcell_array.write (P.Arch.Bank.array bank) ~word_row:row
        (codes ())
    done;
    for i = 0 to P.Arch.Params.xreg_depth - 1 do
      P.Arch.Xreg.load (P.Arch.Bank.xreg bank) ~index:i (codes ())
    done
  done

let run_kernels_bench ~quick =
  let b = P.Benchmarks.matched_filter () in
  let program = b.P.Benchmarks.per_decision_program in
  let n_tasks = List.length program.P.Isa.Program.tasks in
  let reps = if quick then 300 else 2000 in
  let time_mode mode =
    let machine =
      P.Arch.Machine.create
        {
          P.Arch.Machine.banks = max 1 b.P.Benchmarks.banks;
          profile = P.Arch.Bank.Silicon;
          noise_seed = Some 42;
        }
    in
    fill_machine machine;
    let run () =
      match P.Arch.Machine.run_program ~kernel_mode:mode machine program with
      | Ok results -> results
      | Error e -> failwith (P.Error.to_string e)
    in
    (* warmup: populates the kernel cache so the timed loop measures the
       steady state both paths reach on a replay workload *)
    ignore (run ());
    let outputs = ref [] in
    let minor0 = Gc.minor_words () in
    let t0 = now_s () in
    for _ = 1 to reps do
      List.iter
        (fun r -> outputs := r.P.Arch.Machine.emitted :: !outputs)
        (run ())
    done;
    let seconds = ref (now_s () -. t0) in
    let minor = Gc.minor_words () -. minor0 in
    (* best of three timed windows: the replay is deterministic, so
       window-to-window variation is scheduler noise, not workload *)
    for _ = 1 to 2 do
      let t0 = now_s () in
      for _ = 1 to reps do
        ignore (run ())
      done;
      let s = now_s () -. t0 in
      if s < !seconds then seconds := s
    done;
    let total = float_of_int (reps * n_tasks) in
    ( !seconds,
      total /. !seconds,
      minor /. total,
      minor /. float_of_int reps,
      !outputs )
  in
  let ref_s, ref_tps, ref_mwpt, ref_mwpd, ref_out =
    time_mode P.Arch.Machine.Reference
  in
  let fus_s, fus_tps, fus_mwpt, fus_mwpd, fus_out =
    time_mode P.Arch.Machine.Fused
  in
  let identical = ref_out = fus_out in
  let speedup = ref_s /. fus_s in
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"matched filter (N=512) per-decision program replay, \
     single thread\",\n\
    \  \"reps\": %d,\n\
    \  \"tasks\": %d,\n\
    \  \"reference\": { \"seconds\": %.4f, \"tasks_per_sec\": %.1f, \
     \"minor_words_per_task\": %.1f, \"minor_words_per_decision\": %.1f },\n\
    \  \"fused\": { \"seconds\": %.4f, \"tasks_per_sec\": %.1f, \
     \"minor_words_per_task\": %.1f, \"minor_words_per_decision\": %.1f },\n\
    \  \"speedup\": %.3f,\n\
    \  \"identical_output\": %b\n\
     }\n"
    reps (reps * n_tasks) ref_s ref_tps ref_mwpt ref_mwpd fus_s fus_tps
    fus_mwpt fus_mwpd speedup identical;
  close_out oc;
  Format.fprintf ppf
    "kernel bench: reference %.1f tasks/s (%.0f minor words/task, %.0f \
     /decision), fused %.1f tasks/s (%.0f minor words/task, %.0f /decision), \
     speedup %.2fx, identical_output=%b -> BENCH_kernels.json@."
    ref_tps ref_mwpt ref_mwpd fus_tps fus_mwpt fus_mwpd speedup identical;
  if not identical then (
    Format.fprintf ppf "FAIL: fused output differs from reference@.";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Batched-execution macro-benchmark                                     *)
(* ------------------------------------------------------------------ *)

(* Replays the matched-filter decision on twin machines — one decision
   at a time (batch 1 of the fused plane) against wider batches — and
   proves the batched emission stream bitwise identical to the
   sequential one, including the ragged final batch. Three batched
   rows: the program-level path (run_program_batch), the
   zero-allocation serving path (execute_batch_into), and the same
   serving path noiseless (noise generation is drawn bit-identically
   in both paths, so on a single-core host it bounds the achievable
   wall-clock win; the noiseless row shows the engine without it). *)
let run_batch_bench ~quick ~batch =
  let b = P.Benchmarks.matched_filter () in
  let program = b.P.Benchmarks.per_decision_program in
  let n_tasks = List.length program.P.Isa.Program.tasks in
  (* +3 forces a ragged final batch for every even batch width *)
  let decisions = max batch ((if quick then 512 else 4096) + 3) in
  let mk ?(noise = Some 42) () =
    let machine =
      P.Arch.Machine.create
        {
          P.Arch.Machine.banks = max 1 b.P.Benchmarks.banks;
          profile = P.Arch.Bank.Silicon;
          noise_seed = noise;
        }
    in
    fill_machine machine;
    machine
  in
  let ok = function Ok v -> v | Error e -> failwith (P.Error.to_string e) in
  let outputs_of rs =
    List.map (fun r -> (r.P.Arch.Machine.emitted, r.P.Arch.Machine.argext)) rs
  in
  let measure f =
    let minor0 = Gc.minor_words () in
    let t0 = now_s () in
    let v = f () in
    let seconds = now_s () -. t0 in
    let minor = Gc.minor_words () -. minor0 in
    let tasks = float_of_int (decisions * n_tasks) in
    (v, seconds, tasks /. seconds, minor /. tasks)
  in
  (* 1. fused sequential: one run_program per decision *)
  let seq_machine = mk () in
  ignore (ok (P.Arch.Machine.run_program ~kernel_mode:P.Arch.Machine.Fused seq_machine program));
  let seq_out, seq_s, seq_tps, seq_mwpt =
    measure (fun () ->
        let acc = ref [] in
        for _ = 1 to decisions do
          acc :=
            outputs_of
              (ok
                 (P.Arch.Machine.run_program ~kernel_mode:P.Arch.Machine.Fused seq_machine
                    program))
            :: !acc
        done;
        List.rev !acc)
  in
  (* 2. batched program path, chunked at the requested width *)
  let bat_machine = mk () in
  ignore (ok (P.Arch.Machine.run_program ~kernel_mode:P.Arch.Machine.Fused bat_machine program));
  let bat_out, bat_s, bat_tps, bat_mwpt =
    measure (fun () ->
        let acc = ref [] in
        let remaining = ref decisions in
        while !remaining > 0 do
          let n = min batch !remaining in
          let arr =
            ok
              (P.Arch.Machine.run_program_batch ~kernel_mode:P.Arch.Machine.Fused bat_machine
                 program ~batch:n)
          in
          Array.iter (fun rs -> acc := outputs_of rs :: !acc) arr;
          remaining := !remaining - n
        done;
        List.rev !acc)
  in
  let identical = seq_out = bat_out in
  (* 3. the zero-allocation serving path on the program's launch *)
  let task = List.hd program.P.Isa.Program.tasks in
  let launch = P.Arch.Machine.default_launch task in
  let epd =
    P.Arch.Machine.emissions_per_decision task
      ~th:launch.P.Arch.Machine.th
  in
  let out =
    Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (batch * epd)
  in
  let chunked_into machine =
    let remaining = ref decisions in
    while !remaining > 0 do
      let n = min batch !remaining in
      ignore (ok (P.Arch.Machine.execute_batch_into machine launch ~batch:n ~out));
      remaining := !remaining - n
    done
  in
  let time_into ~noise =
    let machine = mk ~noise () in
    ignore (ok (P.Arch.Machine.execute_batch_into machine launch ~batch:1 ~out));
    let (), s, tps, mwpt = measure (fun () -> chunked_into machine) in
    (s, tps, mwpt)
  in
  let into_s, into_tps, into_mwpt = time_into ~noise:(Some 42) in
  let nless_s, nless_tps, nless_mwpt = time_into ~noise:None in
  (* serving-path identity: a fresh twin pair, chunked vs sequential *)
  let into_identical =
    let check_n = min decisions 259 in
    let m_into = mk () and m_seq = mk () in
    let got = ref [] in
    let remaining = ref check_n in
    while !remaining > 0 do
      let n = min batch !remaining in
      ignore (ok (P.Arch.Machine.execute_batch_into m_into launch ~batch:n ~out));
      for d = 0 to (n * epd) - 1 do
        got := out.{d} :: !got
      done;
      remaining := !remaining - n
    done;
    let want = ref [] in
    for _ = 1 to check_n do
      let r = P.Arch.Machine.execute_exn ~kernel_mode:P.Arch.Machine.Fused m_seq launch in
      List.iter
        (fun v -> want := v :: !want)
        (r.P.Arch.Machine.emitted @ r.P.Arch.Machine.acc_out)
    done;
    List.length !got = List.length !want
    && List.for_all2
         (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
         !got !want
  in
  let cores = Domain.recommended_domain_count () in
  let speedup = seq_s /. bat_s in
  let speedup_into = seq_s /. into_s in
  let oc = open_out "BENCH_batch.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"matched filter (N=512) per-decision replay, single \
     thread\",\n\
    \  \"host_cores\": %d,\n\
    \  \"jobs\": 1,\n\
    \  \"batch\": %d,\n\
    \  \"decisions\": %d,\n\
    \  \"fused_sequential\": { \"seconds\": %.4f, \"tasks_per_sec\": %.1f, \
     \"minor_words_per_task\": %.1f },\n\
    \  \"batched_program\": { \"seconds\": %.4f, \"tasks_per_sec\": %.1f, \
     \"minor_words_per_task\": %.1f },\n\
    \  \"batched_into\": { \"seconds\": %.4f, \"tasks_per_sec\": %.1f, \
     \"minor_words_per_task\": %.1f },\n\
    \  \"batched_into_noiseless\": { \"seconds\": %.4f, \"tasks_per_sec\": \
     %.1f, \"minor_words_per_task\": %.1f },\n\
    \  \"speedup_vs_fused\": %.3f,\n\
    \  \"speedup_into_vs_fused\": %.3f,\n\
    \  \"identical_output\": %b,\n\
    \  \"note\": \"noise variates are drawn bit-identically in both paths \
     (the identity contract), so at jobs=1 they bound the wall-clock win; \
     the batch engine's gain is allocation (minor words/task) and the \
     noiseless row\"\n\
     }\n"
    cores batch decisions seq_s seq_tps seq_mwpt bat_s bat_tps bat_mwpt into_s
    into_tps into_mwpt nless_s nless_tps nless_mwpt speedup speedup_into
    (identical && into_identical);
  close_out oc;
  Format.fprintf ppf
    "batch bench (batch=%d, %d decisions): fused %.1f tasks/s (%.0f minor \
     words/task), batched %.1f tasks/s (%.0f), into %.1f tasks/s (%.1f), \
     noiseless into %.1f tasks/s, speedup %.2fx, identical_output=%b -> \
     BENCH_batch.json@."
    batch decisions seq_tps seq_mwpt bat_tps bat_mwpt into_tps into_mwpt
    nless_tps speedup
    (identical && into_identical);
  if not (identical && into_identical) then (
    Format.fprintf ppf "FAIL: batched output differs from sequential@.";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

type cli = {
  jobs : int option;
  quick : bool;
  parallel : bool;
  kernels : bool;
  batch : int option;
  checkpoint : string option;
  resume : bool;
  incidents : string option;
  names : string list;
}

(* every flag value goes through the typed validators: `bench --jobs
   fuor` dies with the same structured error a bad PROMISE_JOBS does,
   instead of an int_of_string backtrace *)
let parse_args args =
  let ( let* ) = Result.bind in
  let missing flag =
    Error
      (P.Error.make ~layer:"cli" ~code:P.Error.Invalid_operand
         (flag ^ " needs a value")
         ~context:[ ("flag", flag) ])
  in
  let rec parse acc = function
    | [] -> Ok { acc with names = List.rev acc.names }
    | "--quick" :: rest -> parse { acc with quick = true } rest
    | "--parallel" :: rest -> parse { acc with parallel = true } rest
    | "--kernels" :: rest -> parse { acc with kernels = true } rest
    | [ "--jobs" ] | [ "-j" ] -> missing "--jobs"
    | ("--jobs" | "-j") :: n :: rest ->
        let* n = P.Validate.int_in_range ~what:"--jobs" ~min:1 ~max:64 n in
        parse { acc with jobs = Some n } rest
    | [ "--batch" ] -> missing "--batch"
    | "--batch" :: n :: rest ->
        let* n = P.Validate.int_in_range ~what:"--batch" ~min:1 ~max:4096 n in
        parse { acc with batch = Some n } rest
    | [ "--checkpoint" ] -> missing "--checkpoint"
    | "--checkpoint" :: file :: rest ->
        parse { acc with checkpoint = Some file } rest
    | "--resume" :: rest -> parse { acc with resume = true } rest
    | [ "--incidents" ] -> missing "--incidents"
    | "--incidents" :: file :: rest ->
        parse { acc with incidents = Some file } rest
    | s :: rest -> parse { acc with names = s :: acc.names } rest
  in
  let* cli =
    parse
      {
        jobs = None;
        quick = false;
        parallel = false;
        kernels = false;
        batch = None;
        checkpoint = None;
        resume = false;
        incidents = None;
        names = [];
      }
      args
  in
  let* () = P.check_env () in
  if cli.resume && cli.checkpoint = None then
    Error
      (P.Error.make ~layer:"cli" ~code:P.Error.Invalid_operand
         "--resume needs --checkpoint FILE to resume from"
         ~context:[ ("flag", "--resume") ])
  else Ok cli

(* The report part of the harness runs supervised: `bench --checkpoint
   state.ckpt` survives SIGINT/SIGTERM mid-evaluation and `--resume`
   picks up with the already-rendered sections from the checkpoint —
   the printed report stays byte-identical to an uninterrupted run. *)
let run_report cli =
  let jobs = Option.value cli.jobs ~default:1 in
  Format.fprintf ppf
    "PROMISE reproduction harness - every table and figure of the \
     evaluation@.";
  let names =
    match cli.names with
    | [] -> if cli.quick then P.Report.quick_names () else P.Report.all_names ()
    | names -> P.Report.known_names ppf names
  in
  let incidents =
    match cli.incidents with
    | None -> Ok P.Incident.null
    | Some path -> P.Incident.to_file path
  in
  match incidents with
  | Error e ->
      prerr_endline (P.Error.to_string e);
      exit 2
  | Ok incidents ->
      let stop = P.Supervisor.install_stop_signals () in
      let sup = P.Supervisor.config ~incidents () in
      let session =
        P.Supervisor.session ~sup ?checkpoint:cli.checkpoint
          ~resume:cli.resume ~stop ()
      in
      let outcome =
        P.Pool.with_pool ~jobs (fun pool ->
            P.Workload.run_local ~pool session (P.Report.workload names))
      in
      P.Incident.close incidents;
      (match outcome with
      | P.Workload.Done (results, _) ->
          let quarantined = P.Report.print ppf names results in
          if quarantined > 0 then
            Format.eprintf "%d sections were quarantined@." quarantined
      | P.Workload.Interrupted { completed; total } ->
          Format.eprintf
            "interrupted at %d/%d sections; resume with: bench --checkpoint \
             %s --resume@."
            completed total
            (Option.value cli.checkpoint ~default:"FILE");
          exit (P.Supervisor.exit_code stop)
      | P.Workload.Rejected e ->
          prerr_endline (P.Error.to_string e);
          exit 2);
      run_micro ();
      Format.fprintf ppf "@.done.@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match parse_args args with
  | Error e ->
      prerr_endline (P.Error.to_string e);
      exit 2
  | Ok cli -> (
      match cli.batch with
      | Some batch -> run_batch_bench ~quick:cli.quick ~batch
      | None ->
          if cli.kernels then run_kernels_bench ~quick:cli.quick
          else if cli.parallel then
            run_parallel_bench ~jobs:(Option.value cli.jobs ~default:4)
          else run_report cli)
