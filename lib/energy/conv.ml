type variant = Conv_8b | Conv_opt of int

let precision = function
  | Conv_8b -> 8
  | Conv_opt b ->
      if b < 2 || b > 8 then invalid_arg "Conv: precision must be in [2, 8]";
      b

type workload = { macs : int; fetch_words : int; banks : int }

let t_sram_cycles = 2
let words_per_access ~precision = max 1 (Promise_arch.Params.n_col / 4 / precision)
let sram_access_energy_pj = 33.0
let mac_energy_pj ~precision = 0.9 *. ((float_of_int precision /. 8.0) ** 1.6)
let ctrl_pj_per_ns = 3.4

let accesses v w =
  let b = precision v in
  (w.fetch_words + words_per_access ~precision:b - 1)
  / words_per_access ~precision:b

let delay_ns v w =
  float_of_int (accesses v w * t_sram_cycles)
  *. Promise_arch.Params.cycle_ns /. float_of_int (max 1 w.banks)

let energy v w =
  let b = precision v in
  let read = float_of_int (accesses v w) *. sram_access_energy_pj in
  let compute = float_of_int w.macs *. mac_energy_pj ~precision:b in
  let ns = delay_ns v w in
  let leak =
    Tables.leakage_pj_per_cycle_per_bank *. ns *. float_of_int w.banks
  in
  let ctrl = ctrl_pj_per_ns *. ns in
  { Model.read; compute; leak; ctrl }

let edp v w = Model.total (energy v w) *. delay_ns v w

module For_tests = struct
  let precision = precision
  let words_per_access = words_per_access
end
