type task_record = {
  task : Promise_isa.Task.t;
  iterations : int;
  banks : int;
  tp : int;
  fill_cycles : int;
  cycles : int;
  adc_conversions : int;
  crossbank_transfers : int;
  th_ops : int;
  stall_cycles : int;
}

type t = { mutable records : task_record list; mutable total_cycles : int }

let create () = { records = []; total_cycles = 0 }

let record t r =
  t.records <- r :: t.records;
  t.total_cycles <- t.total_cycles + r.cycles

let records_in_order t = List.rev t.records
let total_cycles t = t.total_cycles

let elapsed_ns t = float_of_int t.total_cycles *. Params.cycle_ns

let pp ppf t =
  Format.fprintf ppf "@[<v>trace: %d tasks, %d cycles@,"
    (List.length t.records) t.total_cycles;
  List.iteri
    (fun i r ->
      Format.fprintf ppf "  [%d] %s iters=%d banks=%d tp=%d cycles=%d@," i
        (Promise_isa.Opcode.class1_name r.task.Promise_isa.Task.class1)
        r.iterations r.banks r.tp r.cycles)
    (records_in_order t);
  Format.fprintf ppf "@]"

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "class1,class2,class4,swing,iterations,banks,tp,fill,cycles,adc,rail,th,stalls\n";
  List.iter
    (fun r ->
      let task = r.task in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n"
           (Promise_isa.Opcode.class1_name task.Promise_isa.Task.class1)
           (Promise_isa.Opcode.asd_name
              task.Promise_isa.Task.class2.Promise_isa.Opcode.asd)
           (Promise_isa.Opcode.class4_name task.Promise_isa.Task.class4)
           task.Promise_isa.Task.op_param.Promise_isa.Op_param.swing
           r.iterations r.banks r.tp r.fill_cycles r.cycles r.adc_conversions
           r.crossbank_transfers r.th_ops r.stall_cycles))
    (records_in_order t);
  Buffer.contents buf
