let task_bits = 48
let task_bytes = 6

module Diag = Promise_core.Diag

let to_int (t : Task.t) =
  match Task.validate t with
  | Error d -> invalid_arg ("Encode.to_int: " ^ Diag.render d)
  | Ok t ->
      (Op_param.to_bits t.op_param lsl 20)
      lor (t.rpt_num lsl 13)
      lor (t.multi_bank lsl 11)
      lor (Opcode.class1_to_code t.class1 lsl 8)
      lor (Opcode.class2_to_code t.class2 lsl 4)
      lor (Opcode.class3_to_code t.class3 lsl 3)
      lor Opcode.class4_to_code t.class4

let ( let* ) = Result.bind

let decode_opcode name of_code code =
  match of_code code with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "reserved %s opcode %#x" name code)

let of_int bits =
  let field off width = (bits lsr off) land ((1 lsl width) - 1) in
  let* class1 = decode_opcode "Class-1" Opcode.class1_of_code (field 8 3) in
  let* class2 = decode_opcode "Class-2" Opcode.class2_of_code (field 4 4) in
  let* class3 = decode_opcode "Class-3" Opcode.class3_of_code (field 3 1) in
  let* class4 = decode_opcode "Class-4" Opcode.class4_of_code (field 0 3) in
  let t =
    {
      Task.op_param = Op_param.of_bits (field 20 28);
      rpt_num = field 13 7;
      multi_bank = field 11 2;
      class1;
      class2;
      class3;
      class4;
    }
  in
  Result.map_error Diag.render (Task.validate t)

let to_bytes t =
  let bits = to_int t in
  let b = Bytes.create task_bytes in
  for i = 0 to task_bytes - 1 do
    let shift = 8 * (task_bytes - 1 - i) in
    Bytes.set_uint8 b i ((bits lsr shift) land 0xff)
  done;
  b

let of_bytes b ~pos =
  if pos < 0 || pos + task_bytes > Bytes.length b then
    Error (Printf.sprintf "of_bytes: position %d out of bounds" pos)
  else
    let bits = ref 0 in
    for i = 0 to task_bytes - 1 do
      bits := (!bits lsl 8) lor Bytes.get_uint8 b (pos + i)
    done;
    of_int !bits

let program_to_bytes tasks =
  let b = Bytes.create (task_bytes * List.length tasks) in
  List.iteri (fun i t -> Bytes.blit (to_bytes t) 0 b (i * task_bytes) task_bytes) tasks;
  b

let program_of_bytes b =
  let len = Bytes.length b in
  if len mod task_bytes <> 0 then
    Error
      (Printf.sprintf "binary program length %d is not a multiple of %d" len
         task_bytes)
  else
    let rec loop pos acc =
      if pos >= len then Ok (List.rev acc)
      else
        match of_bytes b ~pos with
        | Ok t -> loop (pos + task_bytes) (t :: acc)
        | Error msg ->
            Error (Printf.sprintf "task %d: %s" (pos / task_bytes) msg)
    in
    loop 0 []

let hex_of_task t = Printf.sprintf "%012x" (to_int t)

let task_of_hex s =
  match int_of_string_opt ("0x" ^ String.trim s) with
  | None -> Error (Printf.sprintf "invalid hex task %S" s)
  | Some bits ->
      if bits < 0 || bits >= 1 lsl task_bits then
        Error (Printf.sprintf "hex task %S exceeds 48 bits" s)
      else of_int bits

module For_tests = struct
  let to_int = to_int
  let of_int = of_int
  let to_bytes = to_bytes
  let of_bytes = of_bytes
end
