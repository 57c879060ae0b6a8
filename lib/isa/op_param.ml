type t = {
  swing : int;
  acc_num : int;
  w_addr : int;
  x_addr1 : int;
  x_addr2 : int;
  x_prd : int;
  des : Opcode.destination;
  thres_val : int;
}
[@@deriving eq]

let swing_max = 7

let default =
  {
    swing = swing_max;
    acc_num = 0;
    w_addr = 0;
    x_addr1 = 0;
    x_addr2 = 0;
    x_prd = 0;
    des = Opcode.Des_output_buffer;
    thres_val = 0;
  }

module Diag = Promise_core.Diag

let check name v lo hi =
  if v < lo || v > hi then
    Error
      (Diag.errorf ~code:"P-TSK-001" "%s = %d out of range [%d, %d]" name v lo
         hi)
  else Ok ()

let ( let* ) = Result.bind

let validate t =
  let* () = check "SWING" t.swing 0 7 in
  let* () = check "ACC_NUM" t.acc_num 0 3 in
  let* () = check "W_ADDR" t.w_addr 0 511 in
  let* () = check "X_ADDR1" t.x_addr1 0 7 in
  let* () = check "X_ADDR2" t.x_addr2 0 7 in
  let* () = check "X_PRD" t.x_prd 0 3 in
  let* () = check "THRES_VAL" t.thres_val 0 15 in
  Ok t

let to_bits t =
  match validate t with
  | Error d -> invalid_arg ("Op_param.to_bits: " ^ Diag.render d)
  | Ok t ->
      (t.swing lsl 25) lor (t.acc_num lsl 23) lor (t.w_addr lsl 14)
      lor (t.x_addr1 lsl 11) lor (t.x_addr2 lsl 8) lor (t.x_prd lsl 6)
      lor (Opcode.destination_to_code t.des lsl 4)
      lor t.thres_val

let of_bits bits =
  let field off width = (bits lsr off) land ((1 lsl width) - 1) in
  let des =
    match Opcode.destination_of_code (field 4 2) with
    | Some d -> d
    | None -> assert false (* 2-bit field: all codes are valid *)
  in
  {
    swing = field 25 3;
    acc_num = field 23 2;
    w_addr = field 14 9;
    x_addr1 = field 11 3;
    x_addr2 = field 8 3;
    x_prd = field 6 2;
    des;
    thres_val = field 0 4;
  }

let x_addr_at t ~base ~iteration =
  let period = t.x_prd + 1 in
  (base + iteration) mod period
