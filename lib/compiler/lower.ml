open Promise_isa
module At = Promise_ir.Abstract_task
module Layout = Promise_arch.Layout
module E = Promise_core.Error

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun msg -> E.fail ~layer:"compiler" msg) fmt

let classes_of (at : At.t) =
  let avd asd = { Opcode.asd; avd = true } in
  let* class1, class2 =
    match (at.At.vec_op, at.At.red_op) with
    | At.Vo_add, At.Ro_sum -> Ok (Opcode.C1_aadd, avd Opcode.Asd_none)
    | At.Vo_sub, At.Ro_sum -> Ok (Opcode.C1_asubt, avd Opcode.Asd_none)
    | At.Vo_add, At.Ro_sum_abs -> Ok (Opcode.C1_aadd, avd Opcode.Asd_absolute)
    | At.Vo_sub, At.Ro_sum_abs -> Ok (Opcode.C1_asubt, avd Opcode.Asd_absolute)
    | At.Vo_add, At.Ro_sum_square -> Ok (Opcode.C1_aadd, avd Opcode.Asd_square)
    | At.Vo_sub, At.Ro_sum_square ->
        Ok (Opcode.C1_asubt, avd Opcode.Asd_square)
    | At.Vo_add, At.Ro_sum_compare ->
        Ok (Opcode.C1_aadd, avd Opcode.Asd_compare)
    | At.Vo_sub, At.Ro_sum_compare ->
        Ok (Opcode.C1_asubt, avd Opcode.Asd_compare)
    | At.Vo_mul_signed, At.Ro_sum ->
        Ok (Opcode.C1_aread, avd Opcode.Asd_sign_mult)
    | At.Vo_mul_unsigned, At.Ro_sum ->
        Ok (Opcode.C1_aread, avd Opcode.Asd_unsign_mult)
    | (At.Vo_mul_signed | At.Vo_mul_unsigned), _ ->
        fail "a multiply vecOp admits only a plain sum reduction"
    | At.Vo_none, At.Ro_sum -> Ok (Opcode.C1_aread, avd Opcode.Asd_none)
    | At.Vo_none, At.Ro_sum_abs ->
        Ok (Opcode.C1_aread, avd Opcode.Asd_absolute)
    | At.Vo_none, At.Ro_sum_square ->
        Ok (Opcode.C1_aread, avd Opcode.Asd_square)
    | At.Vo_none, At.Ro_sum_compare ->
        Ok (Opcode.C1_aread, avd Opcode.Asd_compare)
  in
  let class4 =
    match at.At.digital_op with
    | At.Do_none -> Opcode.C4_accumulate
    | At.Do_sigmoid -> Opcode.C4_sigmoid
    | At.Do_relu -> Opcode.C4_relu
    | At.Do_min -> Opcode.C4_min
    | At.Do_max -> Opcode.C4_max
    | At.Do_threshold -> Opcode.C4_threshold
    | At.Do_mean -> Opcode.C4_accumulate (* host divides by N *)
  in
  Ok (class1, class2, Opcode.C3_adc, class4)

let threshold_code value =
  let v = Float.max (-1.0) (Float.min 1.0 value) in
  let code = int_of_float (Float.round ((v +. 1.0) /. 2.0 *. 15.0)) in
  max 0 (min 15 code)

let destination_of ~terminal (at : At.t) =
  match at.At.digital_op with
  | (At.Do_sigmoid | At.Do_relu) when not terminal ->
      Opcode.Des_xreg (* intermediate activations: the next layer's X *)
  | At.Do_sigmoid | At.Do_relu | At.Do_none | At.Do_min | At.Do_max
  | At.Do_threshold | At.Do_mean ->
      Opcode.Des_output_buffer

let lower_chunk ?(terminal = false) (at : At.t) ~plan ~chunk ~w_base
    ~xreg_base =
  let* class1, class2, class3, class4 = classes_of at in
  if chunk < 0 || chunk >= plan.Layout.tasks then
    fail "chunk %d out of range" chunk
  else
    let rows = Layout.chunk_rows plan chunk in
    let iterations = rows * plan.Layout.segments in
    if iterations > 128 then fail "row chunk exceeds RPT_NUM capacity"
    else
      let op_param =
        {
          Op_param.swing = at.At.swing;
          acc_num = plan.Layout.segments - 1;
          w_addr = w_base;
          x_addr1 = xreg_base;
          x_addr2 = xreg_base;
          x_prd = Layout.x_prd plan;
          des = destination_of ~terminal at;
          thres_val = threshold_code at.At.threshold;
        }
      in
      Ok
        (Task.make ~op_param ~rpt_num:(iterations - 1)
           ~multi_bank:plan.Layout.multi_bank ~class1 ~class2 ~class3 ~class4
           ())

let lower ?terminal at ~plan =
  let rec chunks i acc =
    if i >= plan.Layout.tasks then Ok (List.rev acc)
    else
      let* task = lower_chunk ?terminal at ~plan ~chunk:i ~w_base:0 ~xreg_base:0 in
      chunks (i + 1) (task :: acc)
  in
  chunks 0 []

let program_of_graph g =
  let order = Promise_ir.Graph.topological_order g in
  let* tasks =
    List.fold_left
      (fun acc id ->
        let* tasks = acc in
        let at = Promise_ir.Graph.task g id in
        let* plan =
          Result.map_error
            (E.of_string ~layer:"compiler")
            (Layout.plan ~vector_len:at.At.vector_len
               ~rows:at.At.loop_iterations ())
        in
        let terminal = Promise_ir.Graph.successors g id = [] in
        let* lowered = lower ~terminal at ~plan in
        Ok (tasks @ lowered))
      (Ok []) order
  in
  let name =
    match Promise_ir.Graph.tasks g with
    | (_, t) :: _ -> t.At.name
    | [] -> "empty"
  in
  (* Fail closed: the emitted Task stream must pass the whole-program
     ISA verifier — a codegen bug becomes a typed error here instead
     of silent garbage in the simulator. *)
  match
    Promise_core.Diag.first_error
      (Promise_analysis.Isa_check.check_program tasks)
  with
  | Some d -> Error (Promise_core.Diag.to_error ~layer:"compiler" d)
  | None -> Ok (Program.make ~name tasks)

module For_tests = struct
  let classes_of = classes_of
  let threshold_code = threshold_code
  let lower = lower
end
