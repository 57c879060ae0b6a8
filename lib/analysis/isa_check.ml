module Diag = Promise_core.Diag
open Promise_isa

let word_rows = Promise_arch.Params.word_rows

let reads_x (t : Task.t) =
  Opcode.class1_reads_x t.class1 || Opcode.asd_reads_x t.class2.Opcode.asd

let writes_xreg (t : Task.t) =
  Opcode.equal_destination t.op_param.Op_param.des Opcode.Des_xreg
  && Task.uses_adc t

let check_tasks ~spans tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let span i = spans i in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iteri
    (fun i t ->
      (* per-Task legality first: the whole-program checks below read
         fields that only mean anything on a well-formed Task *)
      (match Task.validate t with
      | Ok _ -> ()
      | Error d -> add (Diag.with_span d (span i)));
      let p = t.Task.op_param in
      (* P-ISA-001: an X-REG store no later Task consumes is dead — the
         host preloads X-REG, so a write only exists to feed a
         downstream Class-1 add/subtract or Class-2 multiply. *)
      if writes_xreg t then begin
        let consumed = ref false in
        for j = i + 1 to n - 1 do
          if reads_x arr.(j) then consumed := true
        done;
        if not !consumed then
          add
            (Diag.errorf ~code:"P-ISA-001" ~span:(span i)
               "Task stores to X-REG but no later Task reads an X operand \
                (dead write)")
      end;
      (* P-ISA-002: the W window must fit the bank's word rows — the
         hardware wraps W_ADDR + iteration modulo the row count,
         silently aliasing the first rows. *)
      if not (Opcode.equal_class1 t.Task.class1 Opcode.C1_none) then begin
        let last = p.Op_param.w_addr + Task.iterations t - 1 in
        if p.Op_param.w_addr >= word_rows || last >= word_rows then
          add
            (Diag.errorf ~code:"P-ISA-002" ~span:(span i)
               "W window [%d, %d] exceeds the %d word rows of a bank \
                (addresses wrap and alias)"
               p.Op_param.w_addr last word_rows)
      end;
      (* P-ISA-003: analog values cannot cross a Task boundary (§3.1) —
         without a Class-3 ADC the aggregate is dropped at commit. *)
      if Opcode.class1_is_analog t.Task.class1 && not (Task.uses_adc t) then
        add
          (Diag.errorf ~code:"P-ISA-003" ~span:(span i)
             "analog value crosses the Task boundary without a Class-3 ADC \
              and is dropped");
      (* P-ISA-004: the TH stage emits once per ACC_NUM+1 samples; a
         trailing partial group never leaves the accumulator. *)
      if t.Task.class2.Opcode.avd && Task.uses_adc t then begin
        let group = p.Op_param.acc_num + 1 in
        if Task.iterations t mod group <> 0 then
          add
            (Diag.errorf ~code:"P-ISA-004" ~span:(span i)
               "%d iterations do not divide into ACC_NUM+1 = %d accumulation \
                groups; the tail never emits"
               (Task.iterations t) group)
      end;
      (* P-ISA-005: when X circulates, its period must match the
         accumulation group or the groups mix vector segments. *)
      if
        reads_x t
        && t.Task.class2.Opcode.avd
        && Task.uses_adc t
        && p.Op_param.x_prd <> p.Op_param.acc_num
      then
        add
          (Diag.errorf ~code:"P-ISA-005" ~span:(span i)
             "X_PRD = %d is out of phase with ACC_NUM = %d: accumulation \
              groups mix vector segments"
             p.Op_param.x_prd p.Op_param.acc_num))
    arr;
  (* P-ISA-006: a run of consecutive DES=acc Tasks forms one
     accumulation chain; its members must agree on the fields that
     shape the partial sums, and the chain must eventually drain. *)
  let is_acc i =
    Opcode.equal_destination arr.(i).Task.op_param.Op_param.des Opcode.Des_acc
  in
  let i = ref 0 in
  while !i < n do
    if is_acc !i then begin
      let s = !i in
      let e = ref s in
      while !e + 1 < n && is_acc (!e + 1) do
        incr e
      done;
      let head = arr.(s) in
      for j = s + 1 to !e do
        let t = arr.(j) in
        if
          t.Task.multi_bank <> head.Task.multi_bank
          || t.Task.op_param.Op_param.swing <> head.Task.op_param.Op_param.swing
          || t.Task.op_param.Op_param.acc_num
             <> head.Task.op_param.Op_param.acc_num
        then
          add
            (Diag.errorf ~code:"P-ISA-006" ~span:(span j)
               "inconsistent accumulator chain: MULTI_BANK/SWING/ACC_NUM \
                differ from the chain head (task %d)"
               s)
      done;
      if !e = n - 1 then
        add
          (Diag.errorf ~code:"P-ISA-006" ~span:(span !e)
             "accumulator chain never drains: the program ends with DES = acc");
      i := !e + 1
    end
    else incr i
  done;
  Diag.sort (List.rev !diags)

let check_program tasks = check_tasks ~spans:(fun i -> Diag.Task i) tasks

let check_program_located located =
  let lines = Array.of_list (List.map fst located) in
  check_tasks ~spans:(fun i -> Diag.Line lines.(i)) (List.map snd located)
