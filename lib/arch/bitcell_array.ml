type t = {
  words : int array array; (* word_rows x lanes, 8-bit codes *)
  mutable epoch : int; (* writes so far *)
}

let create () =
  { words = Array.make_matrix Params.word_rows Params.lanes 0; epoch = 0 }

let check_addr word_row =
  if word_row < 0 || word_row >= Params.word_rows then
    invalid_arg
      (Printf.sprintf "Bitcell_array: word row %d out of range [0, %d)"
         word_row Params.word_rows)

let check_code code =
  if code < -128 || code > 127 then
    invalid_arg (Printf.sprintf "Bitcell_array: code %d not 8-bit" code)

let write t ~word_row values =
  check_addr word_row;
  if Array.length values > Params.lanes then
    invalid_arg "Bitcell_array.write: more than 128 lanes";
  Array.iter check_code values;
  let row = t.words.(word_row) in
  Array.fill row 0 Params.lanes 0;
  Array.blit values 0 row 0 (Array.length values);
  t.epoch <- t.epoch + 1

let epoch t = t.epoch

let read t ~word_row =
  check_addr word_row;
  Array.copy t.words.(word_row)

let read_lane t ~word_row ~lane =
  check_addr word_row;
  if lane < 0 || lane >= Params.lanes then
    invalid_arg "Bitcell_array.read_lane: bad lane";
  t.words.(word_row).(lane)

let normalized code = float_of_int code /. 128.0
let quantize = Promise_core.Quant.quantize8

let row_unsafe t ~word_row =
  check_addr word_row;
  t.words.(word_row)

let aread t ~word_row ~swing ~noise ~lut =
  check_addr word_row;
  let row = t.words.(word_row) in
  Array.map
    (fun code ->
      let ideal = normalized code in
      let shaped = Promise_analog.Lut.apply lut ideal in
      Promise_analog.Noise.aread noise ~swing shaped)
    row

let msb_lsb_view t ~word_row ~lane =
  let code = read_lane t ~word_row ~lane in
  let unsigned = code land 0xff in
  (unsigned lsr 4, unsigned land 0xf)

module For_tests = struct
  let read_lane = read_lane
  let msb_lsb_view = msb_lsb_view
  let quantize = quantize
end
