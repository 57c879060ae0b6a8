type t = {
  op_param : Op_param.t;
  rpt_num : int;
  multi_bank : int;
  class1 : Opcode.class1;
  class2 : Opcode.class2;
  class3 : Opcode.class3;
  class4 : Opcode.class4;
}
[@@deriving eq]

let iterations t = t.rpt_num + 1
let banks t = 1 lsl t.multi_bank

let nop =
  {
    op_param = Op_param.default;
    rpt_num = 0;
    multi_bank = 0;
    class1 = Opcode.C1_none;
    class2 = { Opcode.asd = Opcode.Asd_none; avd = false };
    class3 = Opcode.C3_none;
    class4 = Opcode.C4_accumulate;
  }

let ( let* ) = Result.bind

module Diag = Promise_core.Diag

let check name v lo hi =
  if v < lo || v > hi then
    Error
      (Diag.errorf ~code:"P-TSK-002" "%s = %d out of range [%d, %d]" name v lo
         hi)
  else Ok ()

let composition_error msg = Error (Diag.make ~code:"P-TSK-003" msg)

let composition_ok class1 class2 class3 class4 =
  let open Opcode in
  let analog1 = class1_is_analog class1 in
  let asd_active = not (equal_asd class2.asd Asd_none) in
  let digitizes = equal_class3 class3 C3_adc in
  if asd_active && not analog1 then
    composition_error "Class-2 aSD operation requires an analog Class-1 producer"
  else if class2.avd && not analog1 then
    composition_error "aVD aggregation requires an analog Class-1 producer"
  else if asd_reads_x class2.asd && class1_reads_x class1 then
    composition_error "Class-2 multiply cannot follow a fused Class-1 add/subtract"
  else if class2.avd && not digitizes then
    composition_error
      "aVD aggregation requires Class-3 ADC (noise must not accumulate)"
  else if digitizes && not analog1 then
    composition_error "Class-3 ADC requires an analog Class-1 producer"
  else if
    (equal_class1 class1 C1_read || equal_class1 class1 C1_write)
    && (asd_active || class2.avd || digitizes)
  then composition_error "digital read/write admits no analog Class-2/3 stage"
  else if
    (not digitizes)
    && not (equal_class4 class4 C4_accumulate)
  then
    (* Without a fresh ADC sample the TH stage has no new operand; only the
       pass-through accumulate (idle) composition is meaningful. *)
    composition_error "a non-trivial Class-4 operation requires Class-3 ADC"
  else Ok ()

let validate t =
  let* _ = Op_param.validate t.op_param in
  let* () = check "RPT_NUM" t.rpt_num 0 127 in
  let* () = check "MULTI_BANK" t.multi_bank 0 3 in
  let* () = composition_ok t.class1 t.class2 t.class3 t.class4 in
  Ok t

let make ?(op_param = Op_param.default) ?(rpt_num = 0) ?(multi_bank = 0)
    ~class1 ~class2 ~class3 ~class4 () =
  let t = { op_param; rpt_num; multi_bank; class1; class2; class3; class4 } in
  match validate t with
  | Ok t -> t
  | Error d -> invalid_arg ("Task.make: " ^ Diag.render d)

let uses_adc t = Opcode.equal_class3 t.class3 Opcode.C3_adc

let legal_compositions () =
  let open Opcode in
  List.concat_map
    (fun class1 ->
      List.concat_map
        (fun class2 ->
          List.concat_map
            (fun class3 ->
              List.filter_map
                (fun class4 ->
                  match composition_ok class1 class2 class3 class4 with
                  | Ok () -> Some (class1, class2, class3, class4)
                  | Error _ -> None)
                all_class4)
            all_class3)
        all_class2)
    all_class1
