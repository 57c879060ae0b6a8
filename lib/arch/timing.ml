open Promise_isa

let class1_delay = function
  | Opcode.C1_none -> 0
  | Opcode.C1_write -> 2
  | Opcode.C1_read -> 2
  | Opcode.C1_aread -> 5
  | Opcode.C1_asubt -> 7
  | Opcode.C1_aadd -> 7

let asd_delay = function
  | Opcode.Asd_none -> 0
  | Opcode.Asd_compare -> 6
  | Opcode.Asd_absolute -> 6
  | Opcode.Asd_square -> 8
  | Opcode.Asd_sign_mult -> 14
  | Opcode.Asd_unsign_mult -> 14

let class2_delay (c2 : Opcode.class2) = asd_delay c2.asd

let class3_latency = function
  | Opcode.C3_none -> 0
  | Opcode.C3_adc -> Promise_analog.Adc.conversion_delay_cycles

let class4_delay = function
  | Opcode.C4_accumulate -> 4
  | Opcode.C4_mean -> 3
  | Opcode.C4_threshold -> 2
  | Opcode.C4_max -> 4
  | Opcode.C4_min -> 4
  | Opcode.C4_sigmoid -> 3
  | Opcode.C4_relu -> 3

let task_tp (t : Task.t) =
  max 1
    (max (class1_delay t.class1)
       (max (class2_delay t.class2) (class4_delay t.class4)))

let program_tp (p : Program.t) =
  List.fold_left (fun acc t -> max acc (task_tp t)) 1 p.Program.tasks

let worst_case_tp () =
  let c1 = List.fold_left (fun a c -> max a (class1_delay c)) 0 Opcode.all_class1 in
  let c2 = List.fold_left (fun a c -> max a (class2_delay c)) 0 Opcode.all_class2 in
  let c4 = List.fold_left (fun a c -> max a (class4_delay c)) 0 Opcode.all_class4 in
  max c1 (max c2 c4)

let fill_cycles (t : Task.t) =
  class1_delay t.class1 + class2_delay t.class2 + class3_latency t.class3
  + class4_delay t.class4

let task_cycles_at ~tp (t : Task.t) =
  fill_cycles t + ((Task.iterations t - 1) * tp)

let task_cycles t = task_cycles_at ~tp:(task_tp t) t
let task_steady_cycles t = Task.iterations t * task_tp t

let unpipelined_iteration_cycles (t : Task.t) = max 1 (fill_cycles t)

let throughput_ops_per_ns t =
  float_of_int Params.lanes /. (float_of_int (task_tp t) *. Params.cycle_ns)

module For_tests = struct
  let unpipelined_iteration_cycles = unpipelined_iteration_cycles
  let throughput_ops_per_ns = throughput_ops_per_ns
end
