type pulse = { weight : int; duration : int }

let check_bits bits =
  if bits < 1 || bits > 16 then invalid_arg "Pwm: bits out of [1, 16]"

let pulses ~bits code =
  check_bits bits;
  if code < 0 || code >= 1 lsl bits then
    invalid_arg "Pwm.pulses: code out of range";
  List.init bits (fun bit ->
      let weight = 1 lsl bit in
      { weight; duration = (if code land weight <> 0 then weight else 0) })

let bitline_drop ~bits ~mv_per_lsb code =
  List.fold_left
    (fun acc p -> acc +. (float_of_int p.duration *. mv_per_lsb))
    0.0
    (pulses ~bits code)

let read_value ~bits code =
  check_bits bits;
  if code < 0 || code >= 1 lsl bits then
    invalid_arg "Pwm.read_value: code out of range";
  float_of_int code /. float_of_int (1 lsl bits)

(* Two's-complement 8-bit code via the sub-ranged MSB/LSB column pair:
   the unsigned pattern splits into nibbles, the LSB column is read at
   1/16 weight, and the sign is restored by re-centering around 128. *)
let subranged_read code8 =
  if code8 < -128 || code8 > 127 then
    invalid_arg "Pwm.subranged_read: code not 8-bit";
  let unsigned = code8 land 0xff in
  let msb = unsigned lsr 4 and lsb = unsigned land 0xf in
  let combined =
    read_value ~bits:4 msb +. (read_value ~bits:4 lsb /. 16.0)
  in
  (* combined = unsigned / 256 in [0, 1); recenter to [-1, 1) *)
  (combined *. 2.0) -. (if code8 < 0 then 2.0 else 0.0)

let max_pulse_units ~bits =
  check_bits bits;
  1 lsl (bits - 1)

module For_tests = struct
  let pulses = pulses
  let bitline_drop = bitline_drop
  let max_pulse_units = max_pulse_units
end
