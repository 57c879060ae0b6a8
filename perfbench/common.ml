(* Shared pieces of the workloads: timing, memory, and the arch-layer
   probes every workload runs on its own programs in a traced run. *)

module P = Promise
module Machine = P.Arch.Machine
module Program = P.Isa.Program

type metric = { name : string; value : float; unit_ : string }

(* What a workload's measurement window produced. [metrics] holds the
   end-to-end metrics of an untraced run, or the per-layer metrics of a
   traced one; [notes] are human-readable report lines. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

(* A workload after set-up: [measure] runs the timed window, [teardown]
   stops anything set-up started, [models_s] is the part of set-up spent
   building the workload's models (training and compiling benchmarks,
   or building the kernels compile-cold compiles). *)
type instance = {
  measure : seconds:float -> trace:Span.t option -> outcome;
  teardown : unit -> unit;
  models_s : float;
}

let m name unit_ value = { name; value; unit_ }
let now_ns = P.Clock.monotonic_ns
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let s_since t0 = ns_since t0 /. 1e9

(* Work rates over consecutive sub-windows of a measured window, each at
   least 100 ms and 512 units of work long, so completions that arrive
   in batches do not quantize a rate. *)
module Rate = struct
  type t = { mutable start : int64; mutable count : int; mutable rates : float list }

  let create () = { start = now_ns (); count = 0; rates = [] }

  (* [n] more units of work completed just now. *)
  let add t n =
    t.count <- t.count + n;
    if t.count >= 512 then begin
      let dt = ns_since t.start in
      if dt >= 1e8 then begin
        t.rates <- (float_of_int t.count /. (dt /. 1e9)) :: t.rates;
        t.start <- now_ns ();
        t.count <- 0
      end
    end

  let rates t = t.rates
end

(* A run's throughput: the upper quartile of its sub-window rates — the
   rate the program sustains while the shared host lets it run. A slow
   phase of the host (they last seconds on a shared 2-core host) drags
   the lower sub-windows and a mean with it; the upper quartile moves
   when the program does. *)
let throughput rates = Stats.percentile rates 0.75

let ok = function
  | Ok v -> v
  | Error e -> failwith (P.Error.to_string e)

(* Peak resident set (VmHWM) of this process, in MiB. *)
let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:nan

(* A fresh machine sized for [program]. The probes leave its banks and
   X-REGs at their reset contents: a Task's host cost, cycles and
   energy do not depend on the codes it reads. *)
let probe_machine ~seed ~noisy program =
  Machine.create
    {
      Machine.banks = max 1 (Program.max_banks program);
      profile = P.Arch.Bank.Silicon;
      noise_seed = (if noisy then Some seed else None);
    }

(* Simulated cost of one decision of [program] (raw ISA semantics):
   tasks, cycles and Eq. 6 energy in nJ. *)
let sim_cost ~seed program =
  let machine = probe_machine ~seed ~noisy:true program in
  ignore (ok (Machine.run_program machine program));
  let tr = Machine.trace machine in
  ( float_of_int (List.length tr.P.Arch.Trace.records),
    float_of_int (P.Arch.Trace.total_cycles tr),
    P.Energy.Model.total (P.Energy.Model.trace_energy tr) /. 1000.0 )

(* Run [f] once to warm up, then repeatedly for about [budget] seconds
   (at least three times); host ns per call. *)
let time_per_call ~budget f =
  f ();
  let t0 = now_ns () in
  let reps = ref 0 in
  while !reps < 3 || s_since t0 < budget do
    f ();
    incr reps
  done;
  ns_since t0 /. float_of_int !reps

(* The arch-layer probe, over [(name, program, batch)] — each program
   with the batch the workload runs it at: host time of
   [Machine.run_program] per task on a noisy and on a noiseless twin
   machine, and of the batch plane ([execute_batch_into] at the
   program's batch) per decision for programs whose single task the
   plane supports. *)
type arch = {
  us_per_task : (string * float) list;  (** noisy replay, per program *)
  noise_share : float;  (** 1 − noiseless replay ÷ noisy replay *)
  plane_us_per_decision : float;  (** nan when no program rides the plane *)
}

let arch_probe ~seed ~budget programs =
  let each = budget /. float_of_int (3 * max 1 (List.length programs)) in
  let replay ~noisy program =
    let machine = probe_machine ~seed ~noisy program in
    let tasks = float_of_int (Program.length program) in
    time_per_call ~budget:each (fun () ->
        Machine.reset_trace machine;
        ignore (ok (Machine.run_program machine program)))
    /. tasks /. 1e3
  in
  let plane (_, program, batch) =
    match program.Program.tasks with
    | [ task ] -> (
        let machine = probe_machine ~seed ~noisy:true program in
        let launch = Machine.default_launch task in
        let epd = Machine.emissions_per_decision task ~th:launch.Machine.th in
        let out =
          Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (batch * epd)
        in
        let run () =
          Machine.reset_trace machine;
          Machine.execute_batch_into machine launch ~batch ~out
        in
        match run () with
        | Error _ -> None
        | Ok _ ->
            Some
              (time_per_call ~budget:each (fun () -> ignore (ok (run ())))
              /. float_of_int batch /. 1e3))
    | _ -> None
  in
  let noisy = List.map (fun (name, p, _) -> (name, replay ~noisy:true p)) programs in
  let quiet = List.map (fun (_, p, _) -> replay ~noisy:false p) programs in
  let planes = List.filter_map plane programs in
  let sum = List.fold_left ( +. ) 0.0 in
  {
    us_per_task = noisy;
    noise_share = 1.0 -. (sum quiet /. sum (List.map snd noisy));
    plane_us_per_decision = Stats.mean planes;
  }

(* The per-layer metrics every workload reports from its traced run;
   [latency_ms] are the op times of the untraced half of the window,
   [op_traced_ms] the p50 op time of the traced half. The op's p99 is
   here rather than end to end: on a shared 2-core host it does not
   repeat run to run within any bound the benchmark could gate on. *)
let common_layers ~arch ~latency_ms ~op_traced_ms ~minor_words_per_op
    ~major_gcs_per_op ~tasks_per_op ~cycles_per_op ~energy_nj_per_op =
  [
    m "latency.p99_ms" "ms" (Stats.percentile latency_ms 0.99);
    m "trace.overhead_share" "share" ((op_traced_ms /. Stats.median latency_ms) -. 1.0);
    m "gc.minor_words_per_op" "words" minor_words_per_op;
    m "gc.major_gcs_per_op" "count" major_gcs_per_op;
    m "arch.us_per_task" "us" (Stats.mean (List.map snd arch.us_per_task));
    m "arch.plane_us_per_decision" "us" arch.plane_us_per_decision;
    m "analog.noise_share" "share" arch.noise_share;
    m "sim.tasks_per_op" "count" tasks_per_op;
    m "sim.cycles_per_op" "cycles" cycles_per_op;
    m "sim.energy_nj_per_op" "nJ" energy_nj_per_op;
  ]

(* Gc counters sampled around a window. *)
let gc_window f =
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let v = f () in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  (v, minor, float_of_int major)

(* [split_window ~seconds] — the traced run's budget: a share for the
   layer probes, then an untraced and a traced half of the op window.
   Gc counters are read over the untraced half, where an op does only
   its own work. *)
let split_window ~seconds = (0.3 *. seconds, 0.35 *. seconds)
