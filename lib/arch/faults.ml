module E = Promise_core.Error

let layer = "faults"

type transient = { seed : int; rate : float }

type t = {
  stuck : (int * int) list;  (* sorted by lane *)
  dead_lanes : int list;  (* sorted *)
  dead_bank : bool;
  adc_offset : float;
  dead_adc_units : int;
  xreg_flip : transient option;
  swing_drift : int;
  leakage_mult : float;
}

let none =
  {
    stuck = [];
    dead_lanes = [];
    dead_bank = false;
    adc_offset = 0.0;
    dead_adc_units = 0;
    xreg_flip = None;
    swing_drift = 0;
    leakage_mult = 1.0;
  }

let is_none t =
  t.stuck = [] && t.dead_lanes = [] && (not t.dead_bank)
  && t.adc_offset = 0.0 && t.dead_adc_units = 0 && t.xreg_flip = None
  && t.swing_drift = 0 && t.leakage_mult = 1.0

let equal (a : t) (b : t) = a = b

let check_lane lane =
  if lane < 0 || lane >= Params.lanes then
    E.fail ~layer ~code:E.Invalid_operand
      ~context:[ ("lane", string_of_int lane) ]
      (Printf.sprintf "lane out of range [0, %d)" Params.lanes)
  else Ok ()

let ( let* ) = Result.bind

let with_stuck_lane t ~lane ~code =
  let* () = check_lane lane in
  if code < -128 || code > 127 then
    E.fail ~layer ~code:E.Invalid_operand
      ~context:[ ("code", string_of_int code) ]
      "stuck code is not a signed 8-bit value (-128..127)"
  else
    Ok
      {
        t with
        stuck = List.sort compare ((lane, code) :: List.remove_assoc lane t.stuck);
        dead_lanes = List.filter (fun l -> l <> lane) t.dead_lanes;
      }

let with_dead_lane t ~lane =
  let* () = check_lane lane in
  Ok
    {
      t with
      dead_lanes = List.sort_uniq compare (lane :: t.dead_lanes);
      stuck = List.remove_assoc lane t.stuck;
    }

let with_dead_bank t = { t with dead_bank = true }
let with_adc_offset t offset = { t with adc_offset = offset }

let with_dead_adc_units t n =
  let units = Promise_analog.Adc.units_per_bank in
  if n < 0 || n > units then
    E.fail ~layer ~code:E.Invalid_operand
      ~context:[ ("units", string_of_int n) ]
      (Printf.sprintf "dead ADC unit count out of range [0, %d]" units)
  else Ok { t with dead_adc_units = n }

let with_xreg_flips t ~seed ~rate =
  if not (rate >= 0.0 && rate <= 1.0) then
    E.fail ~layer ~code:E.Invalid_operand
      ~context:[ ("rate", string_of_float rate) ]
      "X-REG flip rate must be in [0, 1]"
  else if rate = 0.0 then Ok { t with xreg_flip = None }
  else Ok { t with xreg_flip = Some { seed; rate } }

let with_swing_drift t drift =
  if drift < 0 || drift > Promise_analog.Swing.max_code then
    E.fail ~layer ~code:E.Invalid_operand
      ~context:[ ("drift", string_of_int drift) ]
      "swing drift out of range [0, 7]"
  else Ok { t with swing_drift = drift }

let with_leakage_mult t m =
  if not (Float.is_finite m && m >= 1.0) then
    E.fail ~layer ~code:E.Invalid_operand
      ~context:[ ("mult", string_of_float m) ]
      "leakage multiplier must be finite and >= 1"
  else Ok { t with leakage_mult = m }

(* [b] wins where the two conflict (stuck codes, flip parameters). *)
let compose a b =
  let dead_lanes = List.sort_uniq compare (a.dead_lanes @ b.dead_lanes) in
  let stuck =
    List.sort compare
      (List.filter
         (fun (lane, _) ->
           (not (List.mem_assoc lane b.stuck))
           && not (List.mem lane dead_lanes))
         a.stuck
      @ List.filter (fun (lane, _) -> not (List.mem lane dead_lanes)) b.stuck)
  in
  {
    stuck;
    dead_lanes;
    dead_bank = a.dead_bank || b.dead_bank;
    adc_offset = a.adc_offset +. b.adc_offset;
    dead_adc_units =
      min Promise_analog.Adc.units_per_bank
        (a.dead_adc_units + b.dead_adc_units);
    xreg_flip = (match b.xreg_flip with Some _ as f -> f | None -> a.xreg_flip);
    swing_drift =
      min Promise_analog.Swing.max_code (a.swing_drift + b.swing_drift);
    leakage_mult = a.leakage_mult *. b.leakage_mult;
  }

let stuck_lanes t = t.stuck
let dead_lanes t = t.dead_lanes
let is_dead_bank t = t.dead_bank
let adc_offset t = t.adc_offset
let xreg_flip t = t.xreg_flip
let faulty_lanes t =
  List.sort_uniq compare (t.dead_lanes @ List.map fst t.stuck)

let adc_units_available t =
  Promise_analog.Adc.units_per_bank - t.dead_adc_units

let effective_swing t ~swing = max 0 (swing - t.swing_drift)
let effective_idle_ns t ~idle_ns = idle_ns *. t.leakage_mult

let apply_stuck t values =
  if t.dead_bank then Array.make (Array.length values) 0.0
  else if t.stuck = [] && t.dead_lanes = [] then values
  else begin
    let out = Array.copy values in
    let n = Array.length out in
    List.iter
      (fun (lane, code) ->
        if lane < n then out.(lane) <- float_of_int code /. 128.0)
      t.stuck;
    List.iter (fun lane -> if lane < n then out.(lane) <- 0.0) t.dead_lanes;
    out
  end

(* Canonical textual form: every field printed, [of_string] inverts it
   exactly (%.17g round-trips any finite float). *)
let to_string t =
  let stuck =
    String.concat ","
      (List.map (fun (l, c) -> Printf.sprintf "%d:%d" l c) t.stuck)
  in
  let dead = String.concat "," (List.map string_of_int t.dead_lanes) in
  let flip =
    match t.xreg_flip with
    | None -> "none"
    | Some { seed; rate } -> Printf.sprintf "%d:%.17g" seed rate
  in
  Printf.sprintf
    "faults{stuck=%s;dead=%s;bank=%s;offset=%.17g;adc=%d;flip=%s;drift=%d;leak=%.17g}"
    stuck dead
    (if t.dead_bank then "dead" else "ok")
    t.adc_offset t.dead_adc_units flip t.swing_drift t.leakage_mult

let of_string s =
  let parse_error detail =
    E.fail ~layer ~code:E.Invalid_operand ~context:[ ("input", s) ]
      ("unparsable fault description: " ^ detail)
  in
  let prefix = "faults{" in
  let plen = String.length prefix in
  if
    String.length s < plen + 1
    || String.sub s 0 plen <> prefix
    || s.[String.length s - 1] <> '}'
  then parse_error "expected faults{...}"
  else
    let body = String.sub s plen (String.length s - plen - 1) in
    let fields = String.split_on_char ';' body in
    let lookup key =
      let p = key ^ "=" in
      match
        List.find_opt
          (fun f ->
            String.length f >= String.length p
            && String.sub f 0 (String.length p) = p)
          fields
      with
      | Some f ->
          Some (String.sub f (String.length p) (String.length f - String.length p))
      | None -> None
    in
    let req key k =
      match lookup key with
      | Some v -> k v
      | None -> parse_error ("missing field " ^ key)
    in
    try
      req "stuck" @@ fun stuck_s ->
      req "dead" @@ fun dead_s ->
      req "bank" @@ fun bank_s ->
      req "offset" @@ fun offset_s ->
      req "adc" @@ fun adc_s ->
      req "flip" @@ fun flip_s ->
      req "drift" @@ fun drift_s ->
      req "leak" @@ fun leak_s ->
      let split_nonempty s =
        if s = "" then [] else String.split_on_char ',' s
      in
      let pair s =
        match String.split_on_char ':' s with
        | [ a; b ] -> (a, b)
        | _ -> failwith "pair"
      in
      let stuck =
        List.map
          (fun e ->
            let l, c = pair e in
            (int_of_string l, int_of_string c))
          (split_nonempty stuck_s)
      in
      let dead = List.map int_of_string (split_nonempty dead_s) in
      let xreg_flip =
        if flip_s = "none" then None
        else
          let s, r = pair flip_s in
          Some { seed = int_of_string s; rate = float_of_string r }
      in
      Ok
        {
          stuck = List.sort compare stuck;
          dead_lanes = List.sort_uniq compare dead;
          dead_bank = bank_s = "dead";
          adc_offset = float_of_string offset_s;
          dead_adc_units = int_of_string adc_s;
          xreg_flip;
          swing_drift = int_of_string drift_s;
          leakage_mult = float_of_string leak_s;
        }
    with Failure msg -> parse_error msg

module For_tests = struct
  let is_none = is_none
  let compose = compose
  let faulty_lanes = faulty_lanes
  let to_string = to_string
  let of_string = of_string
end
