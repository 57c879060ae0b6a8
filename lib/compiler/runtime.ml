module At = Promise_ir.Abstract_task
module Graph = Promise_ir.Graph
module Machine = Promise_arch.Machine
module Layout = Promise_arch.Layout
module Bank = Promise_arch.Bank
module Params = Promise_arch.Params
module Th_unit = Promise_arch.Th_unit
module Selftest = Promise_arch.Selftest
module Fx = Promise_ml.Fixed_point
module E = Promise_core.Error
open Promise_isa

type bindings = {
  matrices : (string, float array array) Hashtbl.t;
  vectors : (string, float array) Hashtbl.t;
  flat_lengths : (string, int) Hashtbl.t;
}

let bindings () =
  {
    matrices = Hashtbl.create 8;
    vectors = Hashtbl.create 8;
    flat_lengths = Hashtbl.create 8;
  }

let bind_matrix b name m = Hashtbl.replace b.matrices name m
let bind_vector b name v = Hashtbl.replace b.vectors name v

let bind_flat b name data ~cols =
  if cols < 1 then invalid_arg "Runtime.bind_flat: cols must be >= 1";
  let len = Array.length data in
  let rows = (len + cols - 1) / cols in
  let m =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            let i = (r * cols) + c in
            if i < len then data.(i) else 0.0))
  in
  Hashtbl.replace b.matrices name m;
  Hashtbl.replace b.flat_lengths name len

type task_output = {
  values : float array;
  decision : (int * float) option;
}

type recovery = {
  max_retries : int;
  digital_fallback : bool;
  canary_tolerance : float;
  excluded_banks : int list;
  spared_lanes : int list;
}

let default_recovery =
  {
    max_retries = 2;
    digital_fallback = true;
    canary_tolerance = 0.25;
    excluded_banks = [];
    spared_lanes = [];
  }

let recovery_of_report (r : Selftest.report) =
  let excluded =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Selftest.finding) ->
           match f.Selftest.kind with
           | Selftest.Dead_bank -> Some f.Selftest.bank
           | Selftest.Dead_adc { stall_cycles } when stall_cycles = max_int ->
               Some f.Selftest.bank
           | _ -> None)
         r.Selftest.findings)
  in
  let spared =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Selftest.finding) ->
           match f.Selftest.kind with
           | Selftest.Stuck_lane { lane; _ } | Selftest.Dead_lane { lane } ->
               Some lane
           | _ -> None)
         r.Selftest.findings)
  in
  { default_recovery with excluded_banks = excluded; spared_lanes = spared }

type recovery_stats = {
  retries : int;
  fallbacks : int;
  canary_failures : int;
  spared_lanes : int list;
  excluded_banks : int list;
}

let no_recovery_stats =
  {
    retries = 0;
    fallbacks = 0;
    canary_failures = 0;
    spared_lanes = [];
    excluded_banks = [];
  }

type counters = {
  mutable c_retries : int;
  mutable c_fallbacks : int;
  mutable c_canary_failures : int;
}

type run_result = {
  outputs : (int * task_output) list;
  machine : Machine.t;
  stats : recovery_stats;
}

let ( let* ) = Result.bind
let fail ?code ?context fmt =
  Printf.ksprintf (fun msg -> E.fail ~layer:"runtime" ?code ?context msg) fmt

let required_banks ?max_lanes g =
  List.fold_left
    (fun acc (_, at) ->
      match
        Layout.plan ?max_lanes ~vector_len:at.At.vector_len
          ~rows:at.At.loop_iterations ()
      with
      | Ok p -> max acc p.Layout.banks
      | Error _ -> acc)
    1 (Graph.tasks g)

(* Joint or independent quantization scales; returns (w_codes, x_codes
   option, rescale) where true value = rescale x (digital value computed
   from the quantized data). *)
let quantize_operands (at : At.t) w x_opt =
  let headroom = 0.99 in
  let scale_of max_abs = if max_abs <= 0.0 then 1.0 else max_abs /. headroom in
  let quantize_mat_scaled k m =
    Array.map (Array.map (fun v -> Fx.quantize (v /. k))) m
  in
  let quantize_vec_scaled k v = Array.map (fun e -> Fx.quantize (e /. k)) v in
  match at.At.vec_op with
  | At.Vo_mul_signed | At.Vo_mul_unsigned ->
      let x = Option.get x_opt in
      let kw = scale_of (Promise_ml.Linalg.mat_max_abs w) in
      let kx = scale_of (Promise_ml.Linalg.max_abs x) in
      (quantize_mat_scaled kw w, Some (quantize_vec_scaled kx x), kw *. kx)
  | At.Vo_add | At.Vo_sub ->
      let x = Option.get x_opt in
      let k =
        scale_of
          (Float.max
             (Promise_ml.Linalg.mat_max_abs w)
             (Promise_ml.Linalg.max_abs x))
      in
      let rescale =
        match at.At.red_op with
        | At.Ro_sum | At.Ro_sum_abs -> k
        | At.Ro_sum_square -> k *. k
        | At.Ro_sum_compare -> 1.0
      in
      (quantize_mat_scaled k w, Some (quantize_vec_scaled k x), rescale)
  | At.Vo_none ->
      let kw = scale_of (Promise_ml.Linalg.mat_max_abs w) in
      let rescale =
        match at.At.red_op with
        | At.Ro_sum | At.Ro_sum_abs -> kw
        | At.Ro_sum_square -> kw *. kw
        | At.Ro_sum_compare -> 1.0
      in
      (quantize_mat_scaled kw w, None, rescale)

let resolve_w g b id (at : At.t) =
  let from_edge =
    List.exists
      (fun (_, port) -> Graph.equal_port port Graph.W_input)
      (Graph.predecessors g id)
  in
  if from_edge then
    fail ~code:E.Unsupported
      ~context:[ ("task", at.At.name) ]
      "W produced by another task is not supported"
  else
    match Hashtbl.find_opt b.matrices at.At.w with
    | None ->
        fail ~code:E.Invalid_operand
          ~context:[ ("task", at.At.name) ]
          "unbound W matrix %S" at.At.w
    | Some m ->
        if Array.length m < at.At.loop_iterations then
          fail ~code:E.Invalid_operand
            ~context:[ ("task", at.At.name) ]
            "W matrix %S has %d rows, task needs %d" at.At.w (Array.length m)
            at.At.loop_iterations
        else Ok (Array.sub m 0 at.At.loop_iterations)

let resolve_x g b outputs id (at : At.t) =
  if not (At.uses_x at) then Ok None
  else
    let from_edge =
      List.find_opt
        (fun (_, port) -> Graph.equal_port port Graph.X_input)
        (Graph.predecessors g id)
    in
    match from_edge with
    | Some (pid, _) -> (
        match Hashtbl.find_opt outputs pid with
        | Some out -> Ok (Some out.values)
        | None ->
            fail ~code:E.Internal
              ~context:[ ("task", at.At.name) ]
              "producer %d has no output yet" pid)
    | None -> (
        match Hashtbl.find_opt b.vectors at.At.x with
        | Some v -> Ok (Some v)
        | None ->
            fail ~code:E.Invalid_operand
              ~context:[ ("task", at.At.name) ]
              "unbound X vector %S" at.At.x)

(* ADC range matching: a digital preview of every per-bank charge-share
   mean picks the largest power-of-two pre-ADC gain that keeps the
   aggregate within ~0.7 of full scale (headroom for analog noise).
   Mirrors Bank's gain staging exactly, minus noise and LUT shaping. *)
let ideal_partial_mean (at : At.t) ~w_slice ~x_slice ~lanes =
  let acc = ref 0.0 in
  for lane = 0 to lanes - 1 do
    let w = float_of_int w_slice.(lane) /. 128.0 in
    let x =
      match x_slice with
      | Some xs -> float_of_int xs.(lane) /. 128.0
      | None -> 0.0
    in
    let s1 =
      match at.At.vec_op with
      | At.Vo_add -> (w +. x) /. 2.0
      | At.Vo_sub -> (w -. x) /. 2.0
      | At.Vo_mul_signed -> w *. x
      | At.Vo_mul_unsigned -> Float.abs w *. Float.abs x
      | At.Vo_none -> w
    in
    let v =
      match (at.At.vec_op, at.At.red_op) with
      | (At.Vo_mul_signed | At.Vo_mul_unsigned), _ -> s1
      | _, At.Ro_sum -> s1
      | _, At.Ro_sum_abs -> Float.abs s1
      | _, At.Ro_sum_square -> s1 *. s1
      | _, At.Ro_sum_compare -> if s1 >= 0.0 then 1.0 else 0.0
    in
    acc := !acc +. v
  done;
  !acc /. float_of_int lanes

let estimate_adc_gain (at : At.t) (plan : Layout.plan) ~w_codes ~x_for_row =
  let lanes = plan.Layout.lanes_per_bank in
  let max_abs = ref 0.0 in
  Array.iteri
    (fun r w_row ->
      let x_row = x_for_row r in
      for bank = 0 to plan.Layout.banks - 1 do
        for segment = 0 to plan.Layout.segments - 1 do
          let w_slice = Layout.slice_of_vector plan w_row ~bank ~segment in
          let x_slice =
            Option.map
              (fun x -> Layout.slice_of_vector plan x ~bank ~segment)
              x_row
          in
          let m = ideal_partial_mean at ~w_slice ~x_slice ~lanes in
          max_abs := Float.max !max_abs (Float.abs m)
        done
      done)
    w_codes;
  let target = 0.7 in
  let rec grow g =
    if g >= 64.0 then 64.0
    else if 2.0 *. g *. !max_abs <= target then grow (2.0 *. g)
    else g
  in
  if !max_abs <= 0.0 then 64.0 else grow 1.0

let better_decision class4 (a : int * float) (b : (int * float) option) =
  match b with
  | None -> Some a
  | Some (_, bv) ->
      let _, av = a in
      let keep_a =
        match class4 with
        | Opcode.C4_min -> av < bv
        | Opcode.C4_max -> av > bv
        | _ -> false
      in
      if keep_a then Some a else b

let dest_xreg_index = Params.xreg_depth - 1

(* The digital reference for a chunk (the canary): the same per-bank
   charge-share means the analog path computes, with noise, LUT shaping
   and ADC quantization removed, fed through an identical TH unit. *)
let ideal_chunk (at : At.t) ~plan ~th ~w_rows ~x_row =
  let th_sim = Th_unit.create th in
  let emitted = ref [] in
  let collect (emit : Th_unit.emit) =
    match emit.Th_unit.des with
    | Opcode.Des_output_buffer -> emitted := emit.Th_unit.value :: !emitted
    | Opcode.Des_acc | Opcode.Des_xreg | Opcode.Des_write_buffer ->
        emitted := emit.Th_unit.value :: !emitted
  in
  let rows = Array.length w_rows in
  for i = 0 to (rows * plan.Layout.segments) - 1 do
    let r = i / plan.Layout.segments in
    let segment = i mod plan.Layout.segments in
    let combined = ref 0.0 in
    for bank = 0 to plan.Layout.banks - 1 do
      let w_slice = Layout.slice_of_vector plan w_rows.(r) ~bank ~segment in
      let x_slice =
        Option.map (fun x -> Layout.slice_of_vector plan x ~bank ~segment) x_row
      in
      combined :=
        !combined
        +. ideal_partial_mean at ~w_slice ~x_slice
             ~lanes:plan.Layout.lanes_per_bank
    done;
    match Th_unit.push th_sim !combined with
    | Some e -> collect e
    | None -> ()
  done;
  (match Th_unit.finish th_sim with Some e -> collect e | None -> ());
  (List.rev !emitted, Th_unit.argext th_sim)

let canary_ok ~tolerance actual reference =
  List.length actual = List.length reference
  && List.for_all2
       (fun a r ->
         Float.abs (a -. r) <= tolerance *. Float.max 1.0 (Float.abs r))
       actual reference

(* Bank groups whose banks are all healthy (graceful degradation:
   excluded banks hold no data and execute no tasks). *)
let allowed_groups ~excluded ~(plan : Layout.plan) ~groups =
  let max_group = max 1 (groups / plan.Layout.banks) in
  let ok g =
    let first = g * plan.Layout.banks in
    not
      (List.exists
         (fun b -> b >= first && b < first + plan.Layout.banks)
         excluded)
  in
  List.filter ok (List.init max_group (fun g -> g))

(* Streaming X (one X vector per W row) re-loads X-REG for every row:
   one chunk per row. *)
let streaming (at : At.t) x_opt =
  match x_opt with
  | Some x ->
      at.At.loop_iterations > 1
      && Array.length x = at.At.vector_len * at.At.loop_iterations
  | None -> false

(* [run_task ~batch] runs [batch] decisions of one graph node, chunk by
   chunk: each chunk loads its operands once and its decisions ride
   [Machine.execute_batch] (or, canary-checked, [Machine.execute] per
   decision and retry). Element [d] of the result is decision [d]'s
   output. At batch 1 this is the node's single run. *)
let run_task ?pool ?kernel_mode machine ~(recovery : recovery option)
    ~counters (at : At.t) ~terminal ~w ~x_opt ~original_n ~batch =
  let* () =
    match x_opt with
    | Some x
      when Array.length x <> at.At.vector_len
           && Array.length x <> at.At.vector_len * at.At.loop_iterations ->
        fail ~code:E.Invalid_operand
          ~context:[ ("task", at.At.name) ]
          "X has %d elements, expected %d (broadcast) or %d (streaming)"
          (Array.length x) at.At.vector_len
          (at.At.vector_len * at.At.loop_iterations)
    | _ -> Ok ()
  in
  let streaming = streaming at x_opt in
  let w_codes, x_codes, rescale = quantize_operands at w x_opt in
  let groups = Machine.n_banks machine in
  (* Lane sparing: plan around the faulty columns and scatter slices
     onto the healthy physical lanes. *)
  let spared =
    List.sort_uniq compare
      (List.filter
         (fun l -> l >= 0 && l < Params.lanes)
         (match recovery with Some r -> r.spared_lanes | None -> []))
  in
  let fallback_enabled =
    match recovery with Some r -> r.digital_fallback | None -> false
  in
  (* When every lane is faulty the spare map is empty and no analog
     plan exists; with digital fallback enabled the whole task degrades
     to the host-side digital reference instead of failing. *)
  let lane_map, no_healthy_lanes =
    if spared = [] then (None, false)
    else
      let map = Layout.spare_map ~faulty:spared in
      if Array.length map = 0 then (None, true) else (Some map, false)
  in
  let* () =
    if no_healthy_lanes && not fallback_enabled then
      fail ~code:E.Capacity
        ~context:[ ("task", at.At.name) ]
        "every lane is spared and digital fallback is disabled"
    else Ok ()
  in
  let max_lanes = Option.map Array.length lane_map in
  let excluded =
    match recovery with Some r -> r.excluded_banks | None -> []
  in
  let values = Array.make batch [] and decisions = Array.make batch None in
  let run_chunks plan ~adc_gain ~rows_of_chunk ~w_rows_of_chunk ~x_of_chunk
      ~n_chunks =
    let* template =
      Lower.lower_chunk ~terminal at ~plan ~chunk:0 ~w_base:0 ~xreg_base:0
    in
    let class4 = template.Task.class4 in
    let gain =
      float_of_int plan.Layout.lanes_per_bank
      *. Bank.analog_scale template *. rescale
    in
    let lane_mask =
      Option.map
        (fun map -> Layout.lane_mask_of_map map ~used:plan.Layout.lanes_per_bank)
        lane_map
    in
    (* [`Digital]: no analog resource can serve this task (every bank
       group excluded, or every lane spared) — with fallback enabled,
       every chunk is served by the host-side digital reference. *)
    let* mode =
      match allowed_groups ~excluded ~plan ~groups with
      | [] when fallback_enabled -> Ok `Digital
      | [] ->
          fail ~code:E.Capacity
            ~context:[ ("task", at.At.name) ]
            "every bank group overlaps an excluded bank"
      | _ when no_healthy_lanes -> Ok `Digital
      | l -> Ok (`Analog l)
    in
    let rec go chunk row_offset =
      if chunk >= n_chunks then Ok ()
      else
        let rows_c = rows_of_chunk chunk in
        let* task =
          if rows_c = plan.Layout.rows_per_task then Ok template
          else
            Lower.lower_chunk ~terminal at
              ~plan:
                {
                  plan with
                  Layout.rows = rows_c;
                  rows_per_task = rows_c;
                  tasks = 1;
                }
              ~chunk:0 ~w_base:0 ~xreg_base:0
        in
        let w_rows = w_rows_of_chunk chunk rows_c in
        let x_chunk = x_of_chunk chunk in
        let th =
          {
            Th_unit.op = class4;
            acc_num = task.Task.op_param.Op_param.acc_num;
            threshold = at.At.threshold;
            gain;
            des = task.Task.op_param.Op_param.des;
          }
        in
        let* outcomes =
          match mode with
          | `Digital ->
              counters.c_fallbacks <- counters.c_fallbacks + batch;
              let fallback = ideal_chunk at ~plan ~th ~w_rows ~x_row:x_chunk in
              Ok (Array.make batch (`Fallback fallback))
          | `Analog allowed ->
              let group = List.nth allowed (chunk mod List.length allowed) in
              Machine.load_weights ?lane_map machine ~group ~base:0 ~plan
                w_rows;
              (match x_chunk with
              | Some xc ->
                  Machine.load_x ?lane_map machine ~group ~xreg_base:0 ~plan xc
              | None -> ());
              let launch =
                {
                  Machine.task;
                  bank_group = group;
                  active_lanes = plan.Layout.lanes_per_bank;
                  adc_gain;
                  th;
                  dest_xreg = dest_xreg_index;
                }
              in
              (* The canary-checked retry/fallback path applies to chunks
                 whose emissions go to the output buffer: re-executing
                 them is side-effect-free (X-REG/write-buffer staging is
                 not). *)
              let checked =
                recovery <> None
                && Opcode.equal_destination task.Task.op_param.Op_param.des
                     Opcode.Des_output_buffer
              in
              if not checked then
                let* results =
                  Machine.execute_batch ?lane_mask ?pool ?kernel_mode machine
                    launch ~batch
                in
                Ok (Array.map (fun r -> `Accepted r) results)
              else
                let r = Option.get recovery in
                let reference, ref_argext =
                  ideal_chunk at ~plan ~th ~w_rows ~x_row:x_chunk
                in
                let rec attempt tries =
                  let* result =
                    Machine.execute ?lane_mask ?pool ?kernel_mode machine
                      launch
                  in
                  if
                    canary_ok ~tolerance:r.canary_tolerance
                      result.Machine.emitted reference
                  then Ok (`Accepted result)
                  else begin
                    counters.c_canary_failures <-
                      counters.c_canary_failures + 1;
                    if tries < r.max_retries then begin
                      counters.c_retries <- counters.c_retries + 1;
                      attempt (tries + 1)
                    end
                    else if r.digital_fallback then begin
                      counters.c_fallbacks <- counters.c_fallbacks + 1;
                      Ok (`Fallback (reference, ref_argext))
                    end
                    else
                      fail ~code:E.Retry_exhausted
                        ~context:
                          [
                            ("task", at.At.name);
                            ("chunk", string_of_int chunk);
                          ]
                        "analog result failed its canary bound %d times"
                        (r.max_retries + 1)
                  end
                in
                let rec decide acc d =
                  if d = batch then Ok (Array.of_list (List.rev acc))
                  else
                    let* o = attempt 0 in
                    decide (o :: acc) (d + 1)
                in
                decide [] 0
        in
        Array.iteri
          (fun d outcome ->
            let chunk_values, argext =
              match outcome with
              | `Accepted result ->
                  ( result.Machine.emitted @ result.Machine.xreg_out,
                    result.Machine.argext )
              | `Fallback (reference, ref_argext) -> (reference, ref_argext)
            in
            values.(d) <- values.(d) @ chunk_values;
            match argext with
            | Some (gidx, v) ->
                decisions.(d) <-
                  better_decision class4 (row_offset + gidx, v) decisions.(d)
            | None -> ())
          outcomes;
        go (chunk + 1) (row_offset + rows_c)
    in
    go 0 0
  in
  let typed_plan p = Result.map_error (E.of_string ~layer:"runtime") p in
  let* () =
    if streaming then
      let x = Option.get x_codes in
      let* plan =
        typed_plan
          (Layout.plan ?max_lanes ~vector_len:at.At.vector_len ~rows:1 ())
      in
      let x_row r = Array.sub x (r * at.At.vector_len) at.At.vector_len in
      let adc_gain =
        estimate_adc_gain at plan ~w_codes ~x_for_row:(fun r -> Some (x_row r))
      in
      run_chunks plan ~adc_gain
        ~rows_of_chunk:(fun _ -> 1)
        ~w_rows_of_chunk:(fun chunk _ -> [| w_codes.(chunk) |])
        ~x_of_chunk:(fun chunk -> Some (x_row chunk))
        ~n_chunks:at.At.loop_iterations
    else
      let* plan =
        typed_plan
          (Layout.plan ?max_lanes ~vector_len:at.At.vector_len
             ~rows:at.At.loop_iterations ())
      in
      let adc_gain =
        estimate_adc_gain at plan ~w_codes ~x_for_row:(fun _ -> x_codes)
      in
      run_chunks plan ~adc_gain
        ~rows_of_chunk:(fun chunk -> Layout.chunk_rows plan chunk)
        ~w_rows_of_chunk:(fun chunk rows_c ->
          Array.sub w_codes (chunk * plan.Layout.rows_per_task) rows_c)
        ~x_of_chunk:(fun _ -> x_codes)
        ~n_chunks:plan.Layout.tasks
  in
  (* Decision tasks surface their extremum; mean tasks reduce on host. *)
  Ok
    (Array.mapi
       (fun d values ->
         let values = Array.of_list values in
         match at.At.digital_op with
         | At.Do_mean ->
             let total = Array.fold_left ( +. ) 0.0 values in
             {
               values = [| total /. float_of_int original_n |];
               decision = None;
             }
         | At.Do_min | At.Do_max -> { values; decision = decisions.(d) }
         | At.Do_none | At.Do_sigmoid | At.Do_relu | At.Do_threshold ->
             { values; decision = None })
       values)

let default_machine g =
  Machine.create
    {
      Machine.banks = required_banks g;
      profile = Bank.Silicon;
      noise_seed = Some 42;
    }

let original_n b (at : At.t) =
  match Hashtbl.find_opt b.flat_lengths at.At.w with
  | Some n -> n
  | None -> at.At.vector_len * at.At.loop_iterations

let run ?machine ?recovery ?pool ?kernel_mode g b =
  let machine =
    match machine with Some m -> m | None -> default_machine g
  in
  (* Consulted before the first task dispatches, so the machine is
     untouched when the injected fault surfaces — retrying the whole
     program is stream-safe. *)
  let* () =
    match Promise_core.Failpoint.check "runtime.run" with
    | Some Promise_core.Failpoint.Fail ->
        E.fail ~layer:"runtime" ~code:E.Fault
          ~context:[ ("injected", "true") ]
          "injected runtime fault"
    | Some (Promise_core.Failpoint.Delay ns) ->
        Promise_core.Clock.sleep_ms (Int64.to_float ns /. 1e6);
        Ok ()
    | Some Promise_core.Failpoint.Interrupt | None -> Ok ()
  in
  let counters = { c_retries = 0; c_fallbacks = 0; c_canary_failures = 0 } in
  let order = Graph.topological_order g in
  let outputs = Hashtbl.create 8 in
  let* ids =
    List.fold_left
      (fun acc id ->
        let* ids = acc in
        let at = Graph.task g id in
        let* w = resolve_w g b id at in
        let* x_opt = resolve_x g b outputs id at in
        let terminal = Graph.successors g id = [] in
        let* out =
          run_task ?pool ?kernel_mode machine ~recovery ~counters at ~terminal
            ~w ~x_opt ~original_n:(original_n b at) ~batch:1
        in
        Hashtbl.replace outputs id out.(0);
        Ok (id :: ids))
      (Ok []) order
  in
  let ordered = List.rev ids in
  let stats =
    {
      retries = counters.c_retries;
      fallbacks = counters.c_fallbacks;
      canary_failures = counters.c_canary_failures;
      spared_lanes =
        (match recovery with Some r -> r.spared_lanes | None -> []);
      excluded_banks =
        (match recovery with Some r -> r.excluded_banks | None -> []);
    }
  in
  Ok
    {
      outputs = List.map (fun id -> (id, Hashtbl.find outputs id)) ordered;
      machine;
      stats;
    }

(* Chunk-major batching — each chunk's operands loaded once, all
   decisions on [Machine.execute_batch] — is bit-identical to replaying
   [run] decision by decision when every chunk owns its bank group:
   each group's RNG streams then see exactly their own decisions in
   order, and operand loads are idempotent. Streaming X re-loads X-REG
   per row (one chunk per row), and more chunks than groups would
   interleave two chunks on one group's streams. *)
let chunk_major_exact machine (at : At.t) ~x_opt =
  (not (streaming at x_opt))
  &&
  match
    Layout.plan ~vector_len:at.At.vector_len ~rows:at.At.loop_iterations ()
  with
  | Ok plan ->
      plan.Layout.tasks
      <= List.length
           (allowed_groups ~excluded:[] ~plan ~groups:(Machine.n_banks machine))
  | Error _ -> false

let run_batch ?machine ?recovery ?pool ?kernel_mode g b ~batch =
  if batch < 1 then
    E.fail ~layer:"runtime" ~code:E.Invalid_operand
      ~context:[ ("batch", string_of_int batch) ]
      "batch must be >= 1"
  else
    let machine =
      match machine with Some m -> m | None -> default_machine g
    in
    let replay () =
      let rec go acc d =
        if d = batch then Ok (Array.of_list (List.rev acc))
        else
          let* r = run ~machine ?recovery ?pool ?kernel_mode g b in
          go (r :: acc) (d + 1)
      in
      go [] 0
    in
    match (recovery, Graph.tasks g) with
    | None, [ (id, at) ] when batch > 1 ->
        let* w = resolve_w g b id at in
        let* x_opt = resolve_x g b (Hashtbl.create 1) id at in
        if not (chunk_major_exact machine at ~x_opt) then replay ()
        else
          let counters =
            { c_retries = 0; c_fallbacks = 0; c_canary_failures = 0 }
          in
          let* outs =
            run_task ?pool ?kernel_mode machine ~recovery ~counters at
              ~terminal:true ~w ~x_opt ~original_n:(original_n b at) ~batch
          in
          Ok
            (Array.map
               (fun o ->
                 { outputs = [ (id, o) ]; machine; stats = no_recovery_stats })
               outs)
    | _ -> replay ()

let output_of r id =
  match List.assoc_opt id r.outputs with
  | Some o -> Ok o
  | None ->
      E.fail ~layer:"runtime" ~code:E.Internal
        (Printf.sprintf "no output for node %d" id)

let final_output r =
  match List.rev r.outputs with
  | (_, o) :: _ -> Ok o
  | [] -> E.fail ~layer:"runtime" ~code:E.Internal "empty run result"

module For_tests = struct
  let estimate_adc_gain = estimate_adc_gain
end
