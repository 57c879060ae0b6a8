open Promise_isa
open Promise_arch

let ctrl_pj_per_cycle = 4.3

let steady_iteration_cycles (t : Task.t) =
  max 1 (Timing.class1_delay t.Task.class1 + Timing.class2_delay t.Task.class2)

let program_steady_cycles (p : Program.t) =
  List.fold_left
    (fun acc t -> acc + (Task.iterations t * steady_iteration_cycles t))
    0 p.Program.tasks

let program_energy_steady (p : Program.t) =
  let op_energy =
    List.fold_left
      (fun acc t ->
        let e = Model.task_energy_steady t in
        Model.add acc { e with Model.leak = 0.0; ctrl = 0.0 })
      Model.zero p.Program.tasks
  in
  let cycles = float_of_int (program_steady_cycles p) in
  let banks = float_of_int (Program.max_banks p) in
  {
    op_energy with
    Model.leak = Tables.leakage_pj_per_cycle_per_bank *. cycles *. banks;
    ctrl = ctrl_pj_per_cycle *. cycles;
  }

let speedup_vs_cm_steady p =
  float_of_int (program_steady_cycles p)
  /. float_of_int (Model.program_steady_cycles p)

let energy_saving_vs_cm_steady p =
  let cm = Model.total (program_energy_steady p) in
  let promise = Model.total (Model.program_energy_steady p) in
  (cm -. promise) /. cm

module For_tests = struct
  let program_steady_cycles = program_steady_cycles
end
