open Promise_isa

type config = {
  op : Opcode.class4;
  acc_num : int;
  threshold : float;
  gain : float;
  des : Opcode.destination;
}

type emit = { value : float; group_index : int; des : Opcode.destination }

type t = {
  config : config;
  mutable group_acc : float;
  mutable group_count : int;
  mutable groups_emitted : int;
  mutable extremum : (int * float) option;
  mutable ops : int;
}

let create config =
  if config.acc_num < 0 || config.acc_num > 3 then
    invalid_arg "Th_unit.create: ACC_NUM out of range [0, 3]";
  {
    config;
    group_acc = 0.0;
    group_count = 0;
    groups_emitted = 0;
    extremum = None;
    ops = 0;
  }

(* PLAN approximation (Amin, Curtis & Hayes-Gill 1997), the classic
   piece-wise-linear sigmoid used by FPGA/ASIC TH blocks such as [29].
   The middle breakpoint is 7/3 — the exact intersection of the two
   segments — rather than the commonly quoted 2.375, which leaves a
   ~0.004 discontinuity (and a monotonicity violation) at the seam. *)
let pwl_sigmoid x =
  let a = Float.abs x in
  let y =
    if a >= 5.0 then 1.0
    else if a >= 7.0 /. 3.0 then (0.03125 *. a) +. 0.84375
    else if a >= 1.0 then (0.125 *. a) +. 0.625
    else (0.25 *. a) +. 0.5
  in
  if x >= 0.0 then y else 1.0 -. y

let relu x = Float.max 0.0 x

let better_than op candidate incumbent =
  match op with
  | Opcode.C4_max -> candidate > incumbent
  | Opcode.C4_min -> candidate < incumbent
  | _ -> assert false

let apply_group t value =
  let c = t.config in
  t.ops <- t.ops + 1;
  let index = t.groups_emitted in
  t.groups_emitted <- index + 1;
  let emit v = Some { value = v; group_index = index; des = c.des } in
  match c.op with
  | Opcode.C4_accumulate -> emit value
  | Opcode.C4_mean -> emit (value /. float_of_int (c.acc_num + 1))
  | Opcode.C4_threshold -> emit (if value > c.threshold then 1.0 else 0.0)
  | Opcode.C4_sigmoid -> emit (pwl_sigmoid value)
  | Opcode.C4_relu -> emit (relu value)
  | Opcode.C4_max | Opcode.C4_min ->
      (match t.extremum with
      | Some (_, incumbent) when not (better_than c.op value incumbent) -> ()
      | _ -> t.extremum <- Some (index, value));
      None

let push t sample =
  let c = t.config in
  t.group_acc <- t.group_acc +. (c.gain *. sample);
  t.group_count <- t.group_count + 1;
  if t.group_count = c.acc_num + 1 then begin
    let value = t.group_acc in
    t.group_acc <- 0.0;
    t.group_count <- 0;
    apply_group t value
  end
  else None

let finish t =
  let pending =
    if t.group_count > 0 then begin
      let value = t.group_acc in
      t.group_acc <- 0.0;
      t.group_count <- 0;
      apply_group t value
    end
    else None
  in
  match t.config.op with
  | Opcode.C4_max | Opcode.C4_min -> (
      match t.extremum with
      | Some (index, value) ->
          Some { value; group_index = index; des = t.config.des }
      | None -> pending)
  | _ -> pending

let ops_executed t = t.ops
let argext t = t.extremum
