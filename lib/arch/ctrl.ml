open Promise_isa

type signal =
  | Precharge
  | Wl_pwm of { bits : int }
  | X_drive
  | Sd_enable of Opcode.asd
  | Avd_share
  | Adc_start
  | Th_strobe of Opcode.class4
  | Write_enable
  | Read_enable

let equal_signal a b = a = b

type step = { cycle : int; duration : int; signal : signal }

(* Class-1 stage budget (Table 3): one precharge cycle, then the PWM
   word-line burst (plus X drive for the fused ops) filling the rest. *)
let class1_steps (task : Task.t) =
  let delay = Timing.class1_delay task.Task.class1 in
  match task.Task.class1 with
  | Opcode.C1_none -> []
  | Opcode.C1_write -> [ { cycle = 0; duration = delay; signal = Write_enable } ]
  | Opcode.C1_read -> [ { cycle = 0; duration = delay; signal = Read_enable } ]
  | Opcode.C1_aread ->
      [
        { cycle = 0; duration = 1; signal = Precharge };
        { cycle = 1; duration = delay - 1; signal = Wl_pwm { bits = Params.word_bits } };
      ]
  | Opcode.C1_asubt | Opcode.C1_aadd ->
      [
        { cycle = 0; duration = 1; signal = Precharge };
        { cycle = 1; duration = delay - 1; signal = Wl_pwm { bits = Params.word_bits } };
        { cycle = 1; duration = delay - 1; signal = X_drive };
      ]

let steps (task : Task.t) =
  let c1 = class1_steps task in
  let after_c1 = Timing.class1_delay task.Task.class1 in
  let asd = task.Task.class2.Opcode.asd in
  let c2 =
    if Opcode.equal_asd asd Opcode.Asd_none then []
    else
      [
        {
          cycle = after_c1;
          duration = Timing.class2_delay task.Task.class2;
          signal = Sd_enable asd;
        };
      ]
  in
  let after_c2 = after_c1 + Timing.class2_delay task.Task.class2 in
  let avd =
    if task.Task.class2.Opcode.avd then
      [ { cycle = after_c2 - 1; duration = 1; signal = Avd_share } ]
    else []
  in
  let adc =
    if Task.uses_adc task then
      [ { cycle = after_c2; duration = 1; signal = Adc_start } ]
    else []
  in
  let after_adc = after_c2 + Timing.class3_latency task.Task.class3 in
  (* the TH stage occupies its pipeline slot whether or not a fresh
     ADC sample arrived (the stage budget of Timing.fill_cycles) *)
  let th =
    [
      {
        cycle = after_adc;
        duration = Timing.class4_delay task.Task.class4;
        signal = Th_strobe task.Task.class4;
      };
    ]
  in
  c1 @ c2 @ avd @ adc @ th

let iteration_schedule task =
  match Task.validate task with
  | Ok task -> steps task
  | Error d ->
      invalid_arg ("Ctrl.iteration_schedule: " ^ Promise_core.Diag.render d)

let last_cycle steps =
  List.fold_left (fun acc s -> max acc (s.cycle + s.duration)) 0 steps

let signal_counts task =
  let schedule = iteration_schedule task in
  let iterations = Task.iterations task in
  List.map (fun s -> (s.signal, iterations)) schedule

module For_tests = struct
  let equal_signal = equal_signal
  let signal_counts = signal_counts
end
