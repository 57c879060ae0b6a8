open Promise_isa
open Promise_arch

type breakdown = {
  read : float;
  compute : float;
  leak : float;
  ctrl : float;
}

let total b = b.read +. b.compute +. b.leak +. b.ctrl
let zero = { read = 0.0; compute = 0.0; leak = 0.0; ctrl = 0.0 }

let add a b =
  {
    read = a.read +. b.read;
    compute = a.compute +. b.compute;
    leak = a.leak +. b.leak;
    ctrl = a.ctrl +. b.ctrl;
  }

let scale k b =
  {
    read = k *. b.read;
    compute = k *. b.compute;
    leak = k *. b.leak;
    ctrl = k *. b.ctrl;
  }

let pp_breakdown ppf b =
  Format.fprintf ppf
    "read %.1f pJ + compute %.1f pJ + leak %.1f pJ + ctrl %.1f pJ = %.1f pJ"
    b.read b.compute b.leak b.ctrl (total b)

let record_energy ~task ~iterations ~banks ~cycles ~adc_conversions
    ~crossbank_transfers ~th_ops =
  let p = task.Task.op_param in
  let fb = float_of_int banks in
  let fi = float_of_int iterations in
  let read =
    Tables.class1_energy_at_swing task.Task.class1 ~swing:p.Op_param.swing
    *. fi *. fb
  in
  let compute =
    (Tables.class2_energy_pj task.Task.class2 *. fi *. fb)
    +. (Tables.class3_energy_pj task.Task.class3
       *. float_of_int adc_conversions *. fb)
    +. (Tables.class4_energy_pj task.Task.class4 *. float_of_int th_ops)
    +. (Tables.crossbank_transfer_pj *. float_of_int crossbank_transfers)
  in
  let leak =
    Tables.leakage_pj_per_cycle_per_bank *. float_of_int cycles *. fb
  in
  let ctrl = Tables.ctrl_pj_per_cycle *. float_of_int cycles in
  { read; compute; leak; ctrl }

let task_record_energy (r : Trace.task_record) =
  record_energy ~task:r.Trace.task ~iterations:r.Trace.iterations
    ~banks:r.Trace.banks ~cycles:r.Trace.cycles
    ~adc_conversions:r.Trace.adc_conversions
    ~crossbank_transfers:r.Trace.crossbank_transfers ~th_ops:r.Trace.th_ops

let trace_energy tr =
  List.fold_left
    (fun acc r -> add acc (task_record_energy r))
    zero
    (Trace.records_in_order tr)

let task_energy_with ~cycles_of (task : Task.t) =
  let iterations = Task.iterations task in
  let banks = Task.banks task in
  let adc_conversions = if Task.uses_adc task then iterations else 0 in
  let crossbank_transfers =
    Crossbank.transfers_per_iteration ~banks * iterations
  in
  (* One TH group per X_PRD period. *)
  let group = task.Task.op_param.Op_param.acc_num + 1 in
  let th_ops = if adc_conversions > 0 then iterations / group else 0 in
  record_energy ~task ~iterations ~banks ~cycles:(cycles_of task)
    ~adc_conversions ~crossbank_transfers ~th_ops

let task_energy = task_energy_with ~cycles_of:Timing.task_cycles
let task_energy_steady = task_energy_with ~cycles_of:Timing.task_steady_cycles

let program_energy (p : Program.t) =
  List.fold_left (fun acc t -> add acc (task_energy t)) zero p.Program.tasks

let program_cycles (p : Program.t) =
  List.fold_left (fun acc t -> acc + Timing.task_cycles t) 0 p.Program.tasks

let program_steady_cycles (p : Program.t) =
  List.fold_left (fun acc t -> acc + Timing.task_steady_cycles t) 0
    p.Program.tasks

let program_energy_steady (p : Program.t) =
  List.fold_left (fun acc t -> add acc (task_energy_steady t)) zero
    p.Program.tasks

let program_steady_cycles_at_worst_case_tp (p : Program.t) =
  let tp = Timing.worst_case_tp () in
  List.fold_left
    (fun acc t -> acc + (Promise_isa.Task.iterations t * tp))
    0 p.Program.tasks

let program_cycles_at_worst_case_tp (p : Program.t) =
  let tp = Timing.worst_case_tp () in
  List.fold_left (fun acc t -> acc + Timing.task_cycles_at ~tp t) 0
    p.Program.tasks

let element_ops (p : Program.t) =
  List.fold_left
    (fun acc t -> acc + (Task.iterations t * Params.lanes * Task.banks t))
    0 p.Program.tasks

let energy_delay_product b ~cycles =
  total b *. float_of_int cycles *. Params.cycle_ns
