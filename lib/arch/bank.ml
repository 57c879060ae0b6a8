open Promise_isa
module A = Promise_analog

type profile = Ideal | Silicon | Custom of { lut : bool; leakage : bool }

type t = {
  array : Bitcell_array.t;
  xreg : Xreg.t;
  noise : A.Noise.t;
  profile : profile;
  mutable write_data : int array option;
  mutable staged_writes : int list;  (* reversed *)
  mutable faults : Faults.t;
  mutable fault_rng : A.Rng.t option;  (* X-REG transient upsets *)
}

let create ?(profile = Silicon) ~noise () =
  {
    array = Bitcell_array.create ();
    xreg = Xreg.create ();
    noise;
    profile;
    write_data = None;
    staged_writes = [];
    faults = Faults.none;
    fault_rng = None;
  }

let stage_write_code t code =
  if code < -128 || code > 127 then
    invalid_arg "Bank.stage_write_code: code not 8-bit";
  t.staged_writes <- code :: t.staged_writes

let set_faults t f =
  t.faults <- f;
  t.fault_rng <-
    (match Faults.xreg_flip f with
    | None -> None
    | Some { Faults.seed; _ } -> Some (A.Rng.create seed))

let faults t = t.faults

(* X-REG read with the transient single-bit-upset model: each element
   read flips one random bit of its 8-bit two's-complement code with
   probability [rate]. *)
let xreg_normalized t ~index =
  match (Faults.xreg_flip t.faults, t.fault_rng) with
  | None, _ | _, None -> Xreg.get_normalized t.xreg ~index
  | Some { Faults.rate; _ }, Some rng ->
      let codes = Xreg.get t.xreg ~index in
      Array.map
        (fun c ->
          let c =
            if A.Rng.float rng < rate then begin
              let u = (c + 256) land 0xff in
              let u = u lxor (1 lsl A.Rng.int rng 8) in
              if u > 127 then u - 256 else u
            end
            else c
          in
          float_of_int c /. 128.0)
        codes

let array t = t.array
let xreg t = t.xreg
let profile t = t.profile
let noise t = t.noise
let set_write_data t codes = t.write_data <- Some codes

type step =
  | Sample of float
  | Digital_vector of int array
  | Analog_vector of float array
  | Idle

let class1_scale = function
  | Opcode.C1_asubt | Opcode.C1_aadd -> 2.0
  | Opcode.C1_none | Opcode.C1_write | Opcode.C1_read | Opcode.C1_aread -> 1.0

let analog_scale (task : Task.t) =
  let s1 = class1_scale task.class1 in
  match task.class2.asd with
  | Opcode.Asd_square -> s1 *. s1
  | Opcode.Asd_compare -> 1.0
  | Opcode.Asd_none | Opcode.Asd_absolute | Opcode.Asd_sign_mult
  | Opcode.Asd_unsign_mult ->
      s1

let lut_for_profile profile select =
  match profile with
  | Ideal | Custom { lut = false; _ } -> A.Lut.identity
  | Silicon | Custom { lut = true; _ } -> select ()

let w_row_of ~(task : Task.t) ~iteration =
  (task.op_param.Op_param.w_addr + iteration) mod Params.word_rows

(* Leakage of the S1 analog flip-flops while waiting for the slower stage
   to consume them: idle for (TP - own delay) cycles. *)
let apply_idle_leakage t ~task v =
  match t.profile with
  | Ideal | Custom { leakage = false; _ } -> v
  | Silicon | Custom { leakage = true; _ } ->
      let tp = Timing.task_tp task in
      let idle =
        float_of_int (max 0 (tp - Timing.class1_delay task.Task.class1))
        *. Params.cycle_ns
      in
      let idle = Faults.effective_idle_ns t.faults ~idle_ns:idle in
      Array.map (A.Leakage.bitline ~idle_ns:idle) v

let run_class1 t ~(task : Task.t) ~iteration =
  let p = task.op_param in
  let swing = Faults.effective_swing t.faults ~swing:p.Op_param.swing in
  let lut = lut_for_profile t.profile (fun () -> A.Lut.Silicon.aread) in
  let word_row = w_row_of ~task ~iteration in
  match task.class1 with
  | Opcode.C1_none -> Idle
  | Opcode.C1_write ->
      (match t.write_data with
      | Some codes ->
          Bitcell_array.write t.array ~word_row codes;
          t.write_data <- None
      | None ->
          (* consume the DES=11 write data buffer *)
          let codes = Array.of_list (List.rev t.staged_writes) in
          t.staged_writes <- [];
          Bitcell_array.write t.array ~word_row
            (Array.sub codes 0 (min (Array.length codes) Params.lanes)));
      Idle
  | Opcode.C1_read ->
      if Faults.is_dead_bank t.faults then
        Digital_vector (Array.make Params.lanes 0)
      else Digital_vector (Bitcell_array.read t.array ~word_row)
  | Opcode.C1_aread ->
      Analog_vector
        (apply_idle_leakage t ~task
           (Faults.apply_stuck t.faults
              (Bitcell_array.aread t.array ~word_row ~swing ~noise:t.noise
                 ~lut)))
  | Opcode.C1_asubt | Opcode.C1_aadd ->
      let w =
        Faults.apply_stuck t.faults
          (Bitcell_array.aread t.array ~word_row ~swing ~noise:t.noise ~lut)
      in
      let x_index = Op_param.x_addr_at p ~base:p.Op_param.x_addr1 ~iteration in
      let x = xreg_normalized t ~index:x_index in
      let combine =
        match task.class1 with
        | Opcode.C1_asubt -> fun a b -> (a -. b) /. 2.0
        | Opcode.C1_aadd -> fun a b -> (a +. b) /. 2.0
        | _ -> assert false
      in
      Analog_vector (apply_idle_leakage t ~task (Array.map2 combine w x))

let run_asd t ~(task : Task.t) ~iteration values =
  let p = task.op_param in
  let lut select = lut_for_profile t.profile select in
  let shaped l v = A.Lut.apply l v in
  match task.class2.asd with
  | Opcode.Asd_none -> values
  | Opcode.Asd_compare ->
      let l = lut (fun () -> A.Lut.Silicon.compare_) in
      Array.map (fun v -> if shaped l v >= 0.0 then 1.0 else 0.0) values
  | Opcode.Asd_absolute ->
      let l = lut (fun () -> A.Lut.Silicon.absolute) in
      Array.map (fun v -> Float.abs (shaped l v)) values
  | Opcode.Asd_square ->
      let l = lut (fun () -> A.Lut.Silicon.square) in
      Array.map
        (fun v ->
          let v = shaped l v in
          v *. v)
        values
  | Opcode.Asd_sign_mult | Opcode.Asd_unsign_mult ->
      let l = lut (fun () -> A.Lut.Silicon.mult) in
      let x_index = Op_param.x_addr_at p ~base:p.Op_param.x_addr2 ~iteration in
      let x = xreg_normalized t ~index:x_index in
      let mul =
        match task.class2.asd with
        | Opcode.Asd_sign_mult -> fun a b -> shaped l (a *. b)
        | Opcode.Asd_unsign_mult ->
            fun a b -> shaped l (Float.abs a *. Float.abs b)
        | _ -> assert false
      in
      Array.map2 mul values x

let charge_share ?lane_mask ~active_lanes values =
  match lane_mask with
  | None ->
      let sum = ref 0.0 in
      for i = 0 to active_lanes - 1 do
        sum := !sum +. values.(i)
      done;
      !sum /. float_of_int active_lanes
  | Some mask ->
      (* spared layouts populate a scattered subset of physical lanes *)
      let sum = ref 0.0 and n = ref 0 in
      Array.iteri
        (fun i on ->
          if on && i < Array.length values then begin
            sum := !sum +. values.(i);
            incr n
          end)
        mask;
      if !n = 0 then 0.0 else !sum /. float_of_int !n

let run_iteration ?lane_mask t ~task ~iteration ~active_lanes ~adc_gain =
  if active_lanes < 1 || active_lanes > Params.lanes then
    invalid_arg "Bank.run_iteration: active_lanes out of [1, 128]";
  if adc_gain <= 0.0 then invalid_arg "Bank.run_iteration: adc_gain <= 0";
  match run_class1 t ~task ~iteration with
  | Idle -> Idle
  | Digital_vector _ as d -> d
  | Sample _ -> assert false
  | Analog_vector values -> (
      let values = run_asd t ~task ~iteration values in
      let digitizes = Task.uses_adc task in
      match (task.Task.class2.avd, digitizes) with
      | true, true ->
          let analog =
            (adc_gain *. charge_share ?lane_mask ~active_lanes values)
            +. Faults.adc_offset t.faults
          in
          Sample (A.Adc.convert analog /. adc_gain)
      | true, false ->
          (* validation rejects this, but stay total *)
          Analog_vector [| charge_share ?lane_mask ~active_lanes values |]
      | false, true ->
          Digital_vector
            (Array.map (fun v -> A.Adc.quantize v) values)
      | false, false -> Analog_vector values)

module For_tests = struct
  let set_write_data = set_write_data
end
