open Promise_isa
module A = Promise_analog
module E = Promise_core.Error
module Pool = Promise_core.Pool

type config = {
  banks : int;
  profile : Bank.profile;
  noise_seed : int option;
}

let default_config = { banks = 4; profile = Bank.Silicon; noise_seed = Some 42 }
let ideal_config ~banks = { banks; profile = Bank.Ideal; noise_seed = None }

type t = {
  config : config;
  banks : Bank.t array;
  trace : Trace.t;
  (* one slot per bank: the last kernel specialized for it ([None] when
     the launch had none), revalidated by [Kernel.matches] on every
     launch (replay workloads re-launch the same task, so
     specialization amortizes to zero) *)
  kernel_cache : Kernel.t option array;
  (* the bank-major sample plane (grown once, reused) and a tiny
     float-array slot set the zero-allocation serving loop accumulates
     in (a [float ref] would box per store) *)
  mutable bplane : A.Rng.ba;
  bacc : float array;
}

type kernel_mode = Fused | Reference

let env_kernel_mode =
  lazy
    (match Sys.getenv_opt "PROMISE_KERNEL_MODE" with
    | None -> Fused
    | Some s -> (
        match String.lowercase_ascii (String.trim s) with
        | "reference" | "ref" | "scalar" -> Reference
        | _ -> Fused))

let default_kernel_mode () = Lazy.force env_kernel_mode

(* PROMISE_BATCH feeds CLI/benchmark defaults only — it never changes
   what [execute] or the compiler runtime does for a plain call, so a
   run at PROMISE_BATCH=16 reproduces the batch=1 numbers wherever the
   caller didn't opt in. [Promise.check_env] validates the variable
   loudly at CLI startup; this lazy parse falls back to 1 on anything
   invalid rather than raising from deep inside the machine. *)
let env_batch =
  lazy
    (match
       Promise_core.Validate.env_int ~name:"PROMISE_BATCH" ~min:1 ~max:4096
     with
    | Ok (Some n) -> n
    | Ok None | Error _ -> 1)

let default_batch () = Lazy.force env_batch

let create (config : config) =
  if config.banks < 1 || config.banks > 64 then
    invalid_arg "Machine.create: banks must be in [1, 64]";
  let root_rng = A.Rng.create (Option.value config.noise_seed ~default:0) in
  (* one split stream per bank, in ascending bank order: bank [i]'s
     noise draws depend only on (seed, i), never on how the other
     banks are stepped — the invariant parallel execution relies on *)
  let streams = A.Rng.split_n root_rng config.banks in
  let make_bank i =
    let noise =
      match config.noise_seed with
      | None -> A.Noise.disabled
      | Some _ -> A.Noise.create ~rng:streams.(i) ()
    in
    Bank.create ~profile:config.profile ~noise ()
  in
  {
    config;
    banks = Array.init config.banks make_bank;
    trace = Trace.create ();
    kernel_cache = Array.make config.banks None;
    bplane = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0;
    bacc = Array.make 4 0.0;
  }

let config t = t.config
let n_banks t = Array.length t.banks

let bank t i =
  if i < 0 || i >= n_banks t then invalid_arg "Machine.bank: index out of range";
  t.banks.(i)

let trace t = t.trace
let reset_trace t =
  t.trace.Trace.records <- [];
  t.trace.Trace.total_cycles <- 0

type launch = {
  task : Task.t;
  bank_group : int;
  active_lanes : int;
  adc_gain : float;
  th : Th_unit.config;
  dest_xreg : int;
}

type result = {
  emitted : float list;
  acc_out : float list;
  xreg_out : float list;
  write_buffer : int list;
  argext : (int * float) option;
  digital : int array list;
  record : Trace.task_record;
}

let group_banks t launch =
  let n = Task.banks launch.task in
  let first = launch.bank_group * n in
  if launch.bank_group < 0 || first + n > n_banks t then
    E.fail ~layer:"machine" ~code:E.Capacity
      ~context:
        [
          ("group", string_of_int launch.bank_group);
          ("group_banks", string_of_int n);
          ("machine_banks", string_of_int (n_banks t));
        ]
      "bank group exceeds machine"
  else Ok (Array.init n (fun i -> t.banks.(first + i)))

let quantize_code = Promise_core.Quant.quantize8

(* One decision's routed emits, newest first. *)
type routed = {
  mutable r_emitted : float list;
  mutable r_acc : float list;
  mutable r_xreg : float list;
  mutable r_wbuf : int list;
}

let routed () = { r_emitted = []; r_acc = []; r_xreg = []; r_wbuf = [] }

let route_emit banks launch (emit : Th_unit.emit) r =
  match emit.Th_unit.des with
  | Opcode.Des_output_buffer ->
      r.r_emitted <- emit.Th_unit.value :: r.r_emitted
  | Opcode.Des_acc -> r.r_acc <- emit.Th_unit.value :: r.r_acc
  | Opcode.Des_xreg ->
      let code = quantize_code emit.Th_unit.value in
      Array.iter
        (fun b -> Xreg.stage_element (Bank.xreg b) ~index:launch.dest_xreg code)
        banks;
      r.r_xreg <- (float_of_int code /. 128.0) :: r.r_xreg
  | Opcode.Des_write_buffer ->
      let code = quantize_code emit.Th_unit.value in
      Array.iter (fun b -> Bank.stage_write_code b code) banks;
      r.r_wbuf <- code :: r.r_wbuf

(* Excess pipeline stalls when some of the group's ADC units are dead:
   the discrete-event scheduler run with the reduced unit count, minus
   its healthy-baseline stalls. Zero-cost on a healthy group.

   The scheduler's output depends only on the task's stage delays
   (TP derives from d1/d2/d4 and [uses_adc] from d3), the iteration
   count, and the unit count — so the two simulation runs are memoized
   on exactly that shape. Degraded campaigns launch the same few task
   shapes thousands of times; the table stays tiny. *)
let stall_memo : (int * int * int * int * int * int, int) Hashtbl.t =
  Hashtbl.create 64

let stall_memo_mutex = Mutex.create ()
let stall_memo_hits = ref 0
let stall_memo_misses = ref 0

let excess_adc_stalls (task : Task.t) ~avail =
  if avail >= A.Adc.units_per_bank then 0
  else
    let key =
      ( Timing.class1_delay task.class1,
        Timing.class2_delay task.class2,
        Timing.class3_latency task.class3,
        Timing.class4_delay task.class4,
        Task.iterations task,
        avail )
    in
    Mutex.protect stall_memo_mutex (fun () ->
        match Hashtbl.find_opt stall_memo key with
        | Some excess ->
            incr stall_memo_hits;
            excess
        | None ->
            incr stall_memo_misses;
            let stalls units =
              (Scheduler.run ~ideal_adc:false ~adc_units:units task)
                .Scheduler.adc_stalls
            in
            let excess = max 0 (stalls avail - stalls A.Adc.units_per_bank) in
            Hashtbl.add stall_memo key excess;
            excess)

(* A launch reads its own staged writes only when it routes emits into
   an X-REG row the task itself reads. X addressing wraps at X_PRD + 1,
   so a task reads rows 0..X_PRD at most. Only such a launch needs the
   scalar loop, which interleaves sampling and staging iteration by
   iteration; every other launch — write-buffer staging included, which
   only a later Class-1 write consumes — may sample all of its
   iterations before the reduction routes a single emit. *)
let reads_own_staging launch =
  let task = launch.task in
  Opcode.equal_destination launch.th.Th_unit.des Opcode.Des_xreg
  && (Opcode.class1_reads_x task.Task.class1
     || Opcode.asd_reads_x task.Task.class2.Opcode.asd)
  && launch.dest_xreg <= task.Task.op_param.Op_param.x_prd

(* The bank slot's cached kernel, revalidated by [Kernel.matches] (same
   bank + task + launch shape + faults → reuse, so replay workloads pay
   specialization once). *)
let kernel_for ?lane_mask t launch ~slot bank =
  let task = launch.task and active_lanes = launch.active_lanes in
  match t.kernel_cache.(slot) with
  | Some k as cached when Kernel.matches k bank ~task ~active_lanes ~lane_mask
    ->
      cached
  | Some _ | None ->
      let k = Kernel.specialize ?lane_mask bank ~task ~active_lanes in
      t.kernel_cache.(slot) <- k;
      k

exception No_kernel

let group_kernels ?lane_mask t launch group =
  let first = launch.bank_group * Array.length group in
  match
    Array.mapi
      (fun bi b ->
        match kernel_for ?lane_mask t launch ~slot:(first + bi) b with
        | Some k -> k
        | None -> raise_notrace No_kernel)
      group
  with
  | ks -> Some ks
  | exception No_kernel -> None

let injected_fault launch =
  match Promise_core.Failpoint.check "machine.execute" with
  | Some Promise_core.Failpoint.Fail ->
      E.fail ~layer:"machine" ~code:E.Fault
        ~context:
          [ ("group", string_of_int launch.bank_group); ("injected", "true") ]
        "injected analog fault"
  | Some (Promise_core.Failpoint.Delay ns) ->
      Promise_core.Clock.sleep_ms (Int64.to_float ns /. 1e6);
      Ok ()
  | Some Promise_core.Failpoint.Interrupt | None -> Ok ()

(* What every entry point checks before it touches bank state or draws
   from an RNG stream. The [machine.execute] failpoint comes first, so a
   caller that retries after an injected fault sees the machine exactly
   as if the faulted call never happened — the same contract as the
   real Fault-coded checks (e.g. all-ADC-dead). [kernels] is [Some] when
   every bank of the group has a fused kernel and the launch does not
   read its own staged writes: its decisions then ride the sample
   plane. *)
type setup = {
  group : Bank.t array;
  stall_cycles : int;  (* degraded-ADC stalls per decision *)
  kernels : Kernel.t array option;
}

let setup ?lane_mask ?kernel_mode t launch =
  let ( let* ) = Result.bind in
  let task = launch.task in
  let* () = injected_fault launch in
  let* () =
    match Task.validate task with
    | Ok _ -> Ok ()
    | Error d -> Error (Promise_core.Diag.to_error ~layer:"machine" d)
  in
  let* group = group_banks t launch in
  let avail =
    Array.fold_left
      (fun acc b -> min acc (Faults.adc_units_available (Bank.faults b)))
      A.Adc.units_per_bank group
  in
  if Task.uses_adc task && avail < 1 then
    E.fail ~layer:"machine" ~code:E.Fault
      ~context:[ ("group", string_of_int launch.bank_group) ]
      "all ADC units of the bank group are dead"
  else
    let kernels =
      match Option.value kernel_mode ~default:(default_kernel_mode ()) with
      | Reference -> None
      | Fused ->
          if reads_own_staging launch then None
          else group_kernels ?lane_mask t launch group
    in
    Ok
      {
        group;
        stall_cycles =
          (if Task.uses_adc task then excess_adc_stalls task ~avail else 0);
        kernels;
      }

(* Flush TH, append the decision's trace record and package its
   result. *)
let finish_decision t launch s th r ~adc_conversions ~digital =
  (match Th_unit.finish th with
  | Some emit -> route_emit s.group launch emit r
  | None -> ());
  let task = launch.task in
  let iterations = Task.iterations task in
  let n = Array.length s.group in
  let record =
    {
      Trace.task;
      iterations;
      banks = n;
      tp = Timing.task_tp task;
      fill_cycles = Timing.fill_cycles task;
      cycles = Timing.task_cycles task + s.stall_cycles;
      adc_conversions;
      crossbank_transfers =
        Crossbank.transfers_per_iteration ~banks:n * iterations;
      th_ops = Th_unit.ops_executed th;
      stall_cycles = s.stall_cycles;
    }
  in
  Trace.record t.trace record;
  {
    emitted = List.rev r.r_emitted;
    acc_out = List.rev r.r_acc;
    xreg_out = List.rev r.r_xreg;
    write_buffer = List.rev r.r_wbuf;
    argext = Th_unit.argext th;
    digital;
    record;
  }

(* The scalar loop, one decision: every bank steps [Bank.run_iteration]
   iteration by iteration and emits route as they happen. It serves
   [Reference] mode, task shapes with no fused kernel, X-REG flip
   profiles and launches that read their own staged writes. *)
let scalar ?lane_mask t launch s =
  let task = launch.task in
  let n = Array.length s.group in
  let th = Th_unit.create launch.th in
  let r = routed () in
  let digital = ref [] and adc_conversions = ref 0 in
  let partials = Array.make n 0.0 in
  for iteration = 0 to Task.iterations task - 1 do
    Array.fill partials 0 n 0.0;
    let got_sample = ref false in
    Array.iteri
      (fun bi b ->
        match
          Bank.run_iteration ?lane_mask b ~task ~iteration
            ~active_lanes:launch.active_lanes ~adc_gain:launch.adc_gain
        with
        | Bank.Sample v ->
            partials.(bi) <- v;
            got_sample := true;
            incr adc_conversions
        | Bank.Digital_vector v ->
            if bi = 0 then digital := v :: !digital;
            if Task.uses_adc task then
              adc_conversions := !adc_conversions + launch.active_lanes
        | Bank.Analog_vector _ | Bank.Idle -> ())
      s.group;
    if !got_sample then
      match Th_unit.push th (Crossbank.combine partials) with
      | Some emit -> route_emit s.group launch emit r
      | None -> ()
  done;
  finish_decision t launch s th r
    ~adc_conversions:(!adc_conversions / max 1 n)
    ~digital:(List.rev !digital)

(* Fill the bank-major sample plane: bank [bi]'s samples for the whole
   batch live at [bi*batch*iters + d*iters + i]. Bank-major order keeps
   each bank's private RNG streams consumed exactly as sequential
   execution would (banks never read each other's state), and lets a
   pool fan the banks out with one synchronization per batch. *)
let fill_plane ~pool t launch kernels ~batch =
  let n = Array.length kernels in
  let per = batch * Task.iterations launch.task in
  if Bigarray.Array1.dim t.bplane < n * per then
    t.bplane <-
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n * per);
  let plane = t.bplane in
  let adc_gain = launch.adc_gain in
  if Pool.is_parallel pool && n > 1 then
    ignore
      (Pool.map_array pool
         (fun bi ->
           Kernel.sample_batch_into kernels.(bi) ~adc_gain ~batch ~dst:plane
             ~off:(bi * per))
         (Array.init n Fun.id))
  else
    for bi = 0 to n - 1 do
      Kernel.sample_batch_into kernels.(bi) ~adc_gain ~batch ~dst:plane
        ~off:(bi * per)
    done;
  plane

(* The plane reduction of decision [d]: the cross-bank rail and TH
   read its samples back in iteration order and append one trace
   record, exactly as a single decision would. [partials] holds one
   slot per bank of the group. *)
let reduce_decision t launch s plane ~partials ~batch ~d =
  let n = Array.length s.group in
  let iters = Task.iterations launch.task in
  let per = batch * iters in
  let th = Th_unit.create launch.th in
  let r = routed () in
  for i = 0 to iters - 1 do
    for bi = 0 to n - 1 do
      partials.(bi) <- plane.{(bi * per) + (d * iters) + i}
    done;
    match Th_unit.push th (Crossbank.combine partials) with
    | Some emit -> route_emit s.group launch emit r
    | None -> ()
  done;
  finish_decision t launch s th r ~adc_conversions:iters ~digital:[]

let invalid_batch batch =
  E.fail ~layer:"machine" ~code:E.Invalid_operand
    ~context:[ ("batch", string_of_int batch) ]
    "batch must be >= 1"

(* [execute_batch] after its set-up [s]. With kernels, one set-up
   serves the whole batch on the sample plane; otherwise each decision
   runs the scalar loop, every later one after its own set-up, so each
   passes the failpoint exactly as a single [execute] does. *)
let batch_of_setup ?lane_mask ~pool ?kernel_mode t launch s ~batch =
  match s.kernels with
  | Some ks ->
      let plane = fill_plane ~pool t launch ks ~batch in
      let partials = Array.make (Array.length ks) 0.0 in
      Ok
        (Array.init batch (fun d ->
             reduce_decision t launch s plane ~partials ~batch ~d))
  | None ->
      let rec go acc d s =
        let acc = scalar ?lane_mask t launch s :: acc in
        if d = batch then Ok (Array.of_list (List.rev acc))
        else
          match setup ?lane_mask ?kernel_mode t launch with
          | Ok s -> go acc (d + 1) s
          | Error e -> Error e
      in
      go [] 1 s

let execute_batch ?lane_mask ?(pool = Pool.sequential) ?kernel_mode t launch
    ~batch =
  if batch < 1 then invalid_batch batch
  else
    match setup ?lane_mask ?kernel_mode t launch with
    | Error e -> Error e
    | Ok s -> batch_of_setup ?lane_mask ~pool ?kernel_mode t launch s ~batch

(* A single decision is batch 1. *)
let execute ?lane_mask ?pool ?kernel_mode t launch =
  Result.map
    (fun rs -> rs.(0))
    (execute_batch ?lane_mask ?pool ?kernel_mode t launch ~batch:1)

let execute_exn ?lane_mask ?pool ?kernel_mode t launch =
  E.to_invalid_arg (execute ?lane_mask ?pool ?kernel_mode t launch)

let run ?pool ?kernel_mode t launches =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match execute ?pool ?kernel_mode t l with
        | Ok r -> go (r :: acc) rest
        | Error e -> Error e)
  in
  go [] launches

let default_launch (task : Task.t) =
  let p = task.Task.op_param in
  {
    task;
    bank_group = 0;
    active_lanes = Params.lanes;
    adc_gain = 1.0;
    th =
      {
        Th_unit.op = task.Task.class4;
        acc_num = p.Op_param.acc_num;
        threshold = (float_of_int p.Op_param.thres_val /. 7.5) -. 1.0;
        gain = float_of_int Params.lanes *. Bank.analog_scale task;
        des = p.Op_param.des;
      };
    dest_xreg = Params.xreg_depth - 1;
  }

let run_program ?pool ?kernel_mode t (program : Program.t) =
  run ?pool ?kernel_mode t (List.map default_launch program.Program.tasks)

(* The length of one decision's emission stream, [emitted @ acc_out]:
   only a fused-shape task samples, and so drives TH, at all; every op
   except max/min then emits once per TH group (the final partial group
   included, flushed by [Th_unit.finish]), max/min their extremum once
   at finish. X-REG and write-buffer emits stage state instead. *)
let emissions_per_decision (task : Task.t) ~(th : Th_unit.config) =
  match th.Th_unit.des with
  | Opcode.Des_xreg | Opcode.Des_write_buffer -> 0
  | Opcode.Des_output_buffer | Opcode.Des_acc -> (
      let acc_num = th.Th_unit.acc_num in
      if not (Kernel.fusable task) then 0
      else
        match th.Th_unit.op with
        | Opcode.C4_max | Opcode.C4_min -> 1
        | _ -> (Task.iterations task + acc_num) / (acc_num + 1))

let execute_batch_into ?lane_mask ?(pool = Pool.sequential) ?kernel_mode t
    launch ~batch ~(out : A.Rng.ba) =
  let epd = emissions_per_decision launch.task ~th:launch.th in
  if batch < 1 then invalid_batch batch
  else if Bigarray.Array1.dim out < batch * epd then
    E.fail ~layer:"machine" ~code:E.Invalid_operand
      ~context:
        [
          ("out", string_of_int (Bigarray.Array1.dim out));
          ("needed", string_of_int (batch * epd));
        ]
      "output buffer too small for batch"
  else
    match (setup ?lane_mask ?kernel_mode t launch, launch.th.Th_unit.des) with
    | Error e, _ -> Error e
    | ( Ok ({ kernels = Some kernels; _ } as s),
        (Opcode.Des_output_buffer | Opcode.Des_acc) ) ->
        let task = launch.task in
        let iters = Task.iterations task in
        let thc = launch.th in
        let n = Array.length kernels in
        let per = batch * iters in
        let plane = fill_plane ~pool t launch kernels ~batch in
        (* TH inlined for the zero-allocation loop: [Th_unit.push]'s
           state lives in a mixed record whose float stores box, and
           its emits are [Some {record}] — both allocate per group.
           The arithmetic below is [Th_unit]'s own, operation for
           operation, and the differential suite (test_batch) holds
           this path bitwise equal to [execute] + [Th_unit] over
           random tasks; any TH change must keep it green. Scratch:
           [bacc.(0)] the cross-bank combine, [bacc.(1)] the TH group
           accumulator, [bacc.(2)] the running extremum, [bacc.(3)]
           the group value handed to [apply_group] — passed through
           the float array rather than as an argument because a float
           argument to a local closure is boxed on every call (one
           box per TH group defeats the zero-allocation property). *)
        let op = thc.Th_unit.op in
        let acc_num = thc.Th_unit.acc_num in
        let gain = thc.Th_unit.gain in
        let threshold = thc.Th_unit.threshold in
        let acc_n1f = float_of_int (acc_num + 1) in
        let bacc = t.bacc in
        let gcount = ref 0 in
        let emit_at = ref 0 in
        let ext_set = ref false in
        let apply_group () =
          let value = bacc.(3) in
          match op with
          | Opcode.C4_accumulate ->
              out.{!emit_at} <- value;
              incr emit_at
          | Opcode.C4_mean ->
              out.{!emit_at} <- value /. acc_n1f;
              incr emit_at
          | Opcode.C4_threshold ->
              out.{!emit_at} <- (if value > threshold then 1.0 else 0.0);
              incr emit_at
          | Opcode.C4_sigmoid ->
              out.{!emit_at} <- Th_unit.pwl_sigmoid value;
              incr emit_at
          | Opcode.C4_relu ->
              out.{!emit_at} <- Th_unit.relu value;
              incr emit_at
          | Opcode.C4_max ->
              if (not !ext_set) || value > bacc.(2) then begin
                bacc.(2) <- value;
                ext_set := true
              end
          | Opcode.C4_min ->
              if (not !ext_set) || value < bacc.(2) then begin
                bacc.(2) <- value;
                ext_set := true
              end
        in
        for d = 0 to batch - 1 do
          bacc.(1) <- 0.0;
          gcount := 0;
          ext_set := false;
          for i = 0 to iters - 1 do
            bacc.(0) <- 0.0;
            for bi = 0 to n - 1 do
              bacc.(0) <- bacc.(0) +. plane.{(bi * per) + (d * iters) + i}
            done;
            bacc.(1) <- bacc.(1) +. (gain *. bacc.(0));
            incr gcount;
            if !gcount = acc_num + 1 then begin
              bacc.(3) <- bacc.(1);
              bacc.(1) <- 0.0;
              gcount := 0;
              apply_group ()
            end
          done;
          if !gcount > 0 then begin
            bacc.(3) <- bacc.(1);
            bacc.(1) <- 0.0;
            gcount := 0;
            apply_group ()
          end;
          (match op with
          | Opcode.C4_max | Opcode.C4_min ->
              out.{!emit_at} <- bacc.(2);
              incr emit_at
          | _ -> ())
        done;
        (* one trace record for the whole batch, with the pipelined
           timing model: the pipeline never drains between decisions
           of the same task shape, so each decision after the first
           adds [iterations × TP] cycles (TP = max stage delay), plus
           its own degraded-ADC stalls *)
        let tp = Timing.task_tp task in
        let record =
          {
            Trace.task;
            iterations = batch * iters;
            banks = n;
            tp;
            fill_cycles = Timing.fill_cycles task;
            cycles =
              Timing.task_cycles task
              + ((batch - 1) * iters * tp)
              + (batch * s.stall_cycles);
            adc_conversions = batch * iters;
            crossbank_transfers =
              Crossbank.transfers_per_iteration ~banks:n * iters * batch;
            th_ops =
              batch * ((iters + acc_num) / (acc_num + 1));
            stall_cycles = batch * s.stall_cycles;
          }
        in
        Trace.record t.trace record;
        Ok epd
    | Ok s, _ -> (
        (* everything the in-buffer loop cannot serve — no kernel, or
           emits that stage X-REG or write-buffer state — runs
           [execute_batch]'s own path; each decision's emission stream
           is then copied out *)
        match
          batch_of_setup ?lane_mask ~pool ?kernel_mode t launch s ~batch
        with
        | Error e -> Error e
        | Ok rs ->
            Array.iteri
              (fun d r ->
                List.iteri
                  (fun g v -> out.{(d * epd) + g} <- v)
                  (r.emitted @ r.acc_out))
              rs;
            Ok epd)

(* Scatter a dense logical slice onto the physical lanes named by
   [lane_map] (lane sparing); identity when no map. *)
let scatter ?lane_map slice =
  match lane_map with
  | None -> slice
  | Some map ->
      if Array.length slice > Array.length map then
        invalid_arg "Machine: lane_map shorter than the slice";
      let phys = Array.make Params.lanes 0 in
      Array.iteri (fun l c -> phys.(map.(l)) <- c) slice;
      phys

let load_weights ?lane_map ?bank t ~group ~base ~plan w =
  let n = plan.Layout.banks in
  let first = group * n in
  if first + n > n_banks t then
    invalid_arg "Machine.load_weights: group exceeds machine";
  let rows = Array.length w in
  if base + (rows * plan.Layout.segments) > Params.word_rows then
    invalid_arg "Machine.load_weights: rows overflow the bank";
  let lo, hi =
    match bank with
    | None -> (0, n - 1)
    | Some b when b >= 0 && b < n -> (b, b)
    | Some _ -> invalid_arg "Machine.load_weights: bank outside the group"
  in
  Array.iteri
    (fun r row ->
      for bank_i = lo to hi do
        for segment = 0 to plan.Layout.segments - 1 do
          let slice =
            scatter ?lane_map
              (Layout.slice_of_vector plan row ~bank:bank_i ~segment)
          in
          let word_row = base + (r * plan.Layout.segments) + segment in
          Bitcell_array.write
            (Bank.array t.banks.(first + bank_i))
            ~word_row slice
        done
      done)
    w

let load_x ?lane_map t ~group ~xreg_base ~plan x =
  let n = plan.Layout.banks in
  let first = group * n in
  if first + n > n_banks t then
    invalid_arg "Machine.load_x: group exceeds machine";
  if xreg_base + plan.Layout.segments > Params.xreg_depth then
    invalid_arg "Machine.load_x: X-REG overflow";
  for bank_i = 0 to n - 1 do
    for segment = 0 to plan.Layout.segments - 1 do
      let slice =
        scatter ?lane_map (Layout.slice_of_vector plan x ~bank:bank_i ~segment)
      in
      Xreg.load
        (Bank.xreg t.banks.(first + bank_i))
        ~index:(xreg_base + segment) slice
    done
  done

module For_tests = struct
  let stall_memo_stats () =
    Mutex.protect stall_memo_mutex (fun () ->
        (!stall_memo_hits, !stall_memo_misses))

  let reset_stall_memo () =
    Mutex.protect stall_memo_mutex (fun () ->
        Hashtbl.reset stall_memo;
        stall_memo_hits := 0;
        stall_memo_misses := 0)

  let cached_kernel t ~bank = t.kernel_cache.(bank)
  let execute_exn = execute_exn
end
