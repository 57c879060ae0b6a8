open Promise_isa
module A = Promise_analog
module E = Promise_core.Error

type kind =
  | Stuck_lane of { lane : int; code : int }
  | Dead_lane of { lane : int }
  | Dead_bank
  | Adc_offset of { offset : float }
  | Dead_adc of { stall_cycles : int }
  | Xreg_transient of { events : int; trials : int }
  | Swing_degraded of { measured_sigma : float; expected_sigma : float }
  | Excess_leakage of { ratio : float }

type finding = { bank : int; kind : kind }
type report = { findings : finding list; banks_tested : int }

let kind_name = function
  | Stuck_lane _ -> "stuck-lane"
  | Dead_lane _ -> "dead-lane"
  | Dead_bank -> "dead-bank"
  | Adc_offset _ -> "adc-offset"
  | Dead_adc _ -> "dead-adc"
  | Xreg_transient _ -> "xreg-transient"
  | Swing_degraded _ -> "swing-degraded"
  | Excess_leakage _ -> "excess-leakage"

let findings_for r ~bank =
  List.filter_map
    (fun f -> if f.bank = bank then Some f.kind else None)
    r.findings

(* Probe word rows (overwritten per bank): *)
let row_pos = 0 (* all-lanes +96 *)
let row_neg = 1 (* all-lanes -96 *)
let row_zero = 2 (* all zeros: noiseless ADC canary *)
let row_echo = 3 (* +96, subtracted against an X-REG echo *)
let row_alt = 4 (* alternating +-96: zero-mean noise probe *)
let probe_code = 96

let probe_task ?(rpt = 0) ~class1 ~asd ~avd ~adc ~w_addr () =
  let op_param = { Op_param.default with Op_param.w_addr } in
  Task.make ~op_param ~rpt_num:rpt ~multi_bank:0 ~class1
    ~class2:{ Opcode.asd; avd }
    ~class3:(if adc then Opcode.C3_adc else Opcode.C3_none)
    ~class4:Opcode.C4_accumulate ()

let launch ?(adc_gain = 1.0) ~bank task =
  {
    Machine.task;
    bank_group = bank;
    active_lanes = Params.lanes;
    adc_gain;
    th =
      {
        Th_unit.op = Opcode.C4_accumulate;
        acc_num = 0;
        threshold = 0.0;
        gain = 1.0;
        des = Opcode.Des_output_buffer;
      };
    dest_xreg = Params.xreg_depth - 1;
  }

let write_row m ~bank ~word_row codes =
  Bitcell_array.write (Bank.array (Machine.bank m bank)) ~word_row codes

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  let m = mean l in
  let var = mean (List.map (fun v -> (v -. m) ** 2.0) l) in
  sqrt var

(* One per-lane analog read of [w_addr]: the [avd = false] + ADC
   composition digitizes every lane individually. *)
let read_lanes m ~bank ~w_addr =
  let task =
    probe_task ~class1:Opcode.C1_aread ~asd:Opcode.Asd_none ~avd:false
      ~adc:true ~w_addr ()
  in
  match Machine.execute m (launch ~bank task) with
  | Error e -> Error e
  | Ok r -> (
      match r.Machine.digital with
      | [ v ] -> Ok (Array.map A.Adc.dequantize v)
      | _ ->
          E.fail ~layer:"selftest" ~code:E.Internal
            "per-lane probe returned no digital vector")

(* One aggregated (aVD) read of [w_addr], returning the single emitted
   sample. *)
let read_sample ?adc_gain m ~bank ~w_addr =
  let task =
    probe_task ~class1:Opcode.C1_aread ~asd:Opcode.Asd_none ~avd:true ~adc:true
      ~w_addr ()
  in
  match Machine.execute m (launch ?adc_gain ~bank task) with
  | Error e -> Error e
  | Ok r -> (
      match r.Machine.emitted with
      | [ v ] -> Ok v
      | _ ->
          E.fail ~layer:"selftest" ~code:E.Internal
            "aVD probe emitted no sample")

let rec repeat n f acc =
  if n = 0 then Ok (List.rev acc)
  else match f () with Error e -> Error e | Ok v -> repeat (n - 1) f (v :: acc)

let ( let* ) = Result.bind

(* --- Probe 1: stuck/dead lanes and dead banks. ------------------------ *)

(* Two opposing full-scale patterns: a healthy lane swings by ~1.5
   between them; a stuck lane does not move; a dead lane (or stuck at
   zero) sits at ~0. Repetition averages the read noise down. *)
let probe_lanes m ~bank ~trials =
  let reps = max 4 (trials / 8) in
  let* reads_pos =
    repeat reps (fun () -> read_lanes m ~bank ~w_addr:row_pos) []
  in
  let* reads_neg =
    repeat reps (fun () -> read_lanes m ~bank ~w_addr:row_neg) []
  in
  let lane_mean reads l = mean (List.map (fun v -> v.(l)) reads) in
  let faulty = ref [] in
  let n_dead = ref 0 in
  for l = Params.lanes - 1 downto 0 do
    let mp = lane_mean reads_pos l and mn = lane_mean reads_neg l in
    if Float.abs (mp -. mn) < 0.4 then begin
      let code =
        int_of_float (Float.round ((mp +. mn) /. 2.0 *. 128.0))
      in
      if abs code <= 1 then begin
        incr n_dead;
        faulty := Dead_lane { lane = l } :: !faulty
      end
      else faulty := Stuck_lane { lane = l; code } :: !faulty
    end
  done;
  if !n_dead = Params.lanes then begin
    (* Every lane at zero: distinguish a dead bank (digital path also
       zero) from 128 dead columns. *)
    let task =
      probe_task ~class1:Opcode.C1_read ~asd:Opcode.Asd_none ~avd:false
        ~adc:false ~w_addr:row_pos ()
    in
    let* r = Machine.execute m (launch ~bank task) in
    let all_zero =
      match r.Machine.digital with
      | [ v ] -> Array.for_all (fun c -> c = 0) v
      | _ -> false
    in
    if all_zero then Ok [ Dead_bank ] else Ok !faulty
  end
  else Ok !faulty

(* --- Probe 2: ADC conversion offset. ---------------------------------- *)

(* Zero weights make the read noise sigma zero (it scales with |w|), so
   any non-zero conversion of an all-zeros row is ADC offset — after
   accounting for the contribution of already-localized stuck lanes. *)
let probe_adc_offset m ~bank ~lane_faults =
  let reps = 4 in
  let* samples =
    repeat reps (fun () -> read_sample m ~bank ~w_addr:row_zero) []
  in
  let stuck_contribution =
    List.fold_left
      (fun acc k ->
        match k with
        | Stuck_lane { code; _ } -> acc +. (float_of_int code /. 128.0)
        | _ -> acc)
      0.0 lane_faults
    /. float_of_int Params.lanes
  in
  let est = mean samples -. stuck_contribution in
  if Float.abs est > 1.5 *. A.Adc.lsb then Ok (Some (Adc_offset { offset = est }))
  else Ok None

(* --- Probe 3: dead ADC units (pipeline stalls). ----------------------- *)

let probe_dead_adc m ~bank =
  let task =
    probe_task ~rpt:15 ~class1:Opcode.C1_aread ~asd:Opcode.Asd_none ~avd:true
      ~adc:true ~w_addr:0 ()
  in
  match Machine.execute m (launch ~bank task) with
  | Error e when e.E.code = E.Fault ->
      (* every unit dead: the machine refuses to digitize at all *)
      Ok (Some (Dead_adc { stall_cycles = max_int }))
  | Error e -> Error e
  | Ok r ->
      let s = r.Machine.record.Trace.stall_cycles in
      if s > 0 then Ok (Some (Dead_adc { stall_cycles = s })) else Ok None

(* --- Probe 4: X-REG transient upsets. --------------------------------- *)

(* Echo test: X-REG loaded with the same codes as the weight row, so
   aSUBT reads (w - x)/2 ~ 0 per lane. A flipped high bit displaces one
   lane by >= 0.25 — far outside the ~0.03 noise sigma. *)
let probe_xreg m ~bank ~trials ~lane_faults =
  let codes = Array.make Params.lanes probe_code in
  Xreg.load (Bank.xreg (Machine.bank m bank)) ~index:0 codes;
  let suspect = Array.make Params.lanes false in
  List.iter
    (fun k ->
      match k with
      | Stuck_lane { lane; _ } | Dead_lane { lane } -> suspect.(lane) <- true
      | _ -> ())
    lane_faults;
  let task =
    probe_task ~class1:Opcode.C1_asubt ~asd:Opcode.Asd_none ~avd:false
      ~adc:true ~w_addr:row_echo ()
  in
  let events = ref 0 in
  let rec go n =
    if n = 0 then Ok ()
    else
      let* r = Machine.execute m (launch ~bank task) in
      (match r.Machine.digital with
      | [ v ] ->
          Array.iteri
            (fun l c ->
              if
                (not suspect.(l))
                && Float.abs (A.Adc.dequantize c) > 0.15
              then incr events)
            v
      | _ -> ());
      go (n - 1)
  in
  let* () = go trials in
  if !events >= 2 then Ok (Some (Xreg_transient { events = !events; trials }))
  else Ok None

(* --- Probe 5: swing degradation (read-noise sigma). ------------------- *)

(* A zero-mean pattern aggregated over 128 lanes has sigma
   [noise_factor swing / sqrt 128]; the x16 ADC gain drops the
   quantization floor below it. Swing drift raises the factor
   geometrically, so a 2.5x threshold flags a drift of 3+ codes. *)
let probe_swing m ~bank ~trials ~lane_faults =
  let expected =
    A.Noise.aggregate_sigma ~swing:A.Swing.max_code ~n:Params.lanes
  in
  if lane_faults <> [] then Ok None
    (* stuck columns bias the mean, not the sigma, but keep the probe
       conservative: a spared bank is re-tested after repair *)
  else
    let* samples =
      repeat trials (fun () -> read_sample ~adc_gain:16.0 m ~bank ~w_addr:row_alt) []
    in
    let measured = stddev samples in
    if measured > 2.5 *. expected then
      Ok (Some (Swing_degraded { measured_sigma = measured; expected_sigma = expected }))
    else Ok None

(* --- Probe 6: excess bit-line leakage. -------------------------------- *)

(* The aREAD + square + aVD composition has TP 8 against a Class-1
   delay of 5, so the S1 value idles 3 cycles before S2 consumes it —
   long enough for droop to be visible. Comparing against the nominal
   droop isolates a leakage-rate excess. *)
let probe_leakage m ~bank ~lane_faults =
  let reps = 8 in
  let task =
    probe_task ~class1:Opcode.C1_aread ~asd:Opcode.Asd_square ~avd:true
      ~adc:true ~w_addr:row_pos ()
  in
  let* samples =
    repeat reps
      (fun () ->
        let* r = Machine.execute m (launch ~bank task) in
        match r.Machine.emitted with
        | [ v ] -> Ok v
        | _ ->
            E.fail ~layer:"selftest" ~code:E.Internal
              "leakage probe emitted no sample")
      []
  in
  let idle_ns =
    float_of_int (Timing.task_tp task - Timing.class1_delay task.Task.class1)
    *. Params.cycle_ns
  in
  let droop = A.Leakage.bitline ~idle_ns 1.0 in
  let lane_value k =
    match k with
    | Some (Stuck_lane { code; _ }) -> float_of_int code /. 128.0
    | Some (Dead_lane _) -> 0.0
    | _ -> float_of_int probe_code /. 128.0
  in
  let fault_of = Array.make Params.lanes None in
  List.iter
    (fun k ->
      match k with
      | Stuck_lane { lane; _ } | Dead_lane { lane } ->
          fault_of.(lane) <- Some k
      | _ -> ())
    lane_faults;
  let expected =
    let sum = ref 0.0 in
    for l = 0 to Params.lanes - 1 do
      sum := !sum +. ((lane_value fault_of.(l) *. droop) ** 2.0)
    done;
    !sum /. float_of_int Params.lanes
  in
  let measured = mean samples in
  let ratio = if expected = 0.0 then 1.0 else measured /. expected in
  if ratio < 0.9 then Ok (Some (Excess_leakage { ratio })) else Ok None

(* ---------------------------------------------------------------------- *)

let noise_enabled m = (Machine.config m).Machine.noise_seed <> None

let leakage_enabled m =
  match (Machine.config m).Machine.profile with
  | Bank.Silicon | Bank.Custom { leakage = true; _ } -> true
  | Bank.Ideal | Bank.Custom { leakage = false; _ } -> false

let test_bank m ~bank ~trials =
  let pos = Array.make Params.lanes probe_code in
  let neg = Array.make Params.lanes (-probe_code) in
  let alt =
    Array.init Params.lanes (fun l ->
        if l mod 2 = 0 then probe_code else -probe_code)
  in
  write_row m ~bank ~word_row:row_pos pos;
  write_row m ~bank ~word_row:row_neg neg;
  write_row m ~bank ~word_row:row_zero (Array.make Params.lanes 0);
  write_row m ~bank ~word_row:row_echo pos;
  write_row m ~bank ~word_row:row_alt alt;
  let* lane_faults = probe_lanes m ~bank ~trials in
  if List.mem Dead_bank lane_faults then Ok [ Dead_bank ]
  else
    let opt o rest = match o with Some k -> k :: rest | None -> rest in
    let* offset = probe_adc_offset m ~bank ~lane_faults in
    let* dead_adc = probe_dead_adc m ~bank in
    let* transient = probe_xreg m ~bank ~trials ~lane_faults in
    let* swing =
      if noise_enabled m then probe_swing m ~bank ~trials ~lane_faults
      else Ok None
    in
    let* leak =
      if leakage_enabled m then probe_leakage m ~bank ~lane_faults else Ok None
    in
    Ok (lane_faults @ opt offset (opt dead_adc (opt transient (opt swing (opt leak [])))))

let run ?(trials = 32) m =
  if trials < 4 then
    E.fail ~layer:"selftest" ~code:E.Invalid_operand "trials must be >= 4"
  else
    let n = Machine.n_banks m in
    let rec go bank acc =
      if bank = n then Ok { findings = List.rev acc; banks_tested = n }
      else
        (* A bank with no working ADC unit cannot complete any probe
           conversion: the first probe surfaces the machine-layer Fault
           error, which is itself the diagnosis. *)
        let* kinds =
          match test_bank m ~bank ~trials with
          | Error e when e.E.code = E.Fault ->
              Ok [ Dead_adc { stall_cycles = max_int } ]
          | r -> r
        in
        let acc =
          List.fold_left (fun acc kind -> { bank; kind } :: acc) acc kinds
        in
        go (bank + 1) acc
    in
    go 0 []
