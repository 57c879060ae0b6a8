type class1 = C1_none | C1_write | C1_read | C1_aread | C1_asubt | C1_aadd
[@@deriving eq]

type asd =
  | Asd_none
  | Asd_compare
  | Asd_absolute
  | Asd_square
  | Asd_sign_mult
  | Asd_unsign_mult
[@@deriving eq]

type class2 = { asd : asd; avd : bool }
[@@deriving eq]

type class3 = C3_none | C3_adc [@@deriving eq]

type class4 =
  | C4_accumulate
  | C4_mean
  | C4_threshold
  | C4_max
  | C4_min
  | C4_sigmoid
  | C4_relu
[@@deriving eq]

type destination = Des_acc | Des_output_buffer | Des_xreg | Des_write_buffer
[@@deriving eq]

let class1_to_code = function
  | C1_none -> 0b000
  | C1_write -> 0b001
  | C1_read -> 0b010
  | C1_aread -> 0b011
  | C1_asubt -> 0b100
  | C1_aadd -> 0b101

let class1_of_code = function
  | 0b000 -> Some C1_none
  | 0b001 -> Some C1_write
  | 0b010 -> Some C1_read
  | 0b011 -> Some C1_aread
  | 0b100 -> Some C1_asubt
  | 0b101 -> Some C1_aadd
  | _ -> None

let asd_to_code = function
  | Asd_none -> 0b000
  | Asd_compare -> 0b001
  | Asd_absolute -> 0b010
  | Asd_square -> 0b011
  | Asd_sign_mult -> 0b100
  | Asd_unsign_mult -> 0b101

let asd_of_code = function
  | 0b000 -> Some Asd_none
  | 0b001 -> Some Asd_compare
  | 0b010 -> Some Asd_absolute
  | 0b011 -> Some Asd_square
  | 0b100 -> Some Asd_sign_mult
  | 0b101 -> Some Asd_unsign_mult
  | _ -> None

let class2_to_code { asd; avd } = (asd_to_code asd lsl 1) lor Bool.to_int avd

let class2_of_code code =
  if code < 0 || code > 0b1111 then None
  else
    match asd_of_code (code lsr 1) with
    | Some asd -> Some { asd; avd = code land 1 = 1 }
    | None -> None

let class3_to_code = function C3_none -> 0 | C3_adc -> 1

let class3_of_code = function
  | 0 -> Some C3_none
  | 1 -> Some C3_adc
  | _ -> None

let class4_to_code = function
  | C4_accumulate -> 0b000
  | C4_mean -> 0b001
  | C4_threshold -> 0b010
  | C4_max -> 0b011
  | C4_min -> 0b100
  | C4_sigmoid -> 0b101
  | C4_relu -> 0b111

let class4_of_code = function
  | 0b000 -> Some C4_accumulate
  | 0b001 -> Some C4_mean
  | 0b010 -> Some C4_threshold
  | 0b011 -> Some C4_max
  | 0b100 -> Some C4_min
  | 0b101 -> Some C4_sigmoid
  | 0b111 -> Some C4_relu
  | _ -> None

let destination_to_code = function
  | Des_acc -> 0b00
  | Des_output_buffer -> 0b01
  | Des_xreg -> 0b10
  | Des_write_buffer -> 0b11

let destination_of_code = function
  | 0b00 -> Some Des_acc
  | 0b01 -> Some Des_output_buffer
  | 0b10 -> Some Des_xreg
  | 0b11 -> Some Des_write_buffer
  | _ -> None

let class1_name = function
  | C1_none -> "none"
  | C1_write -> "write"
  | C1_read -> "read"
  | C1_aread -> "aREAD"
  | C1_asubt -> "aSUBT"
  | C1_aadd -> "aADD"

let asd_name = function
  | Asd_none -> "none"
  | Asd_compare -> "compare"
  | Asd_absolute -> "absolute"
  | Asd_square -> "square"
  | Asd_sign_mult -> "sign_mult"
  | Asd_unsign_mult -> "unsign_mult"

let class3_name = function C3_none -> "none" | C3_adc -> "ADC"

let class4_name = function
  | C4_accumulate -> "accumulate"
  | C4_mean -> "mean"
  | C4_threshold -> "threshold"
  | C4_max -> "max"
  | C4_min -> "min"
  | C4_sigmoid -> "sigmoid"
  | C4_relu -> "ReLu"

let destination_name = function
  | Des_acc -> "acc"
  | Des_output_buffer -> "out"
  | Des_xreg -> "xreg"
  | Des_write_buffer -> "wbuf"

let all_class1 = [ C1_none; C1_write; C1_read; C1_aread; C1_asubt; C1_aadd ]

let all_asd =
  [
    Asd_none;
    Asd_compare;
    Asd_absolute;
    Asd_square;
    Asd_sign_mult;
    Asd_unsign_mult;
  ]

let all_class2 =
  List.concat_map
    (fun asd -> [ { asd; avd = false }; { asd; avd = true } ])
    all_asd

let all_class3 = [ C3_none; C3_adc ]

let all_class4 =
  [
    C4_accumulate; C4_mean; C4_threshold; C4_max; C4_min; C4_sigmoid; C4_relu;
  ]

let all_destinations = [ Des_acc; Des_output_buffer; Des_xreg; Des_write_buffer ]

let find_by_name name pairs =
  List.find_opt (fun (_, n) -> String.equal n name) pairs
  |> Option.map (fun (v, _) -> v)

let class1_of_name name =
  find_by_name name (List.map (fun c -> (c, class1_name c)) all_class1)

let asd_of_name name =
  find_by_name name (List.map (fun c -> (c, asd_name c)) all_asd)

let class3_of_name name =
  find_by_name name (List.map (fun c -> (c, class3_name c)) all_class3)

let class4_of_name name =
  find_by_name name (List.map (fun c -> (c, class4_name c)) all_class4)

let destination_of_name name =
  find_by_name name
    (List.map (fun c -> (c, destination_name c)) all_destinations)

let class1_reads_x = function
  | C1_asubt | C1_aadd -> true
  | C1_none | C1_write | C1_read | C1_aread -> false

let asd_reads_x = function
  | Asd_sign_mult | Asd_unsign_mult -> true
  | Asd_none | Asd_compare | Asd_absolute | Asd_square -> false

let class1_is_analog = function
  | C1_aread | C1_asubt | C1_aadd -> true
  | C1_none | C1_write | C1_read -> false
