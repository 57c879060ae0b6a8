module At = Promise_ir.Abstract_task
module Graph = Promise_ir.Graph
module Machine = Promise_arch.Machine
module Layout = Promise_arch.Layout
module Bank = Promise_arch.Bank
module Bitcell_array = Promise_arch.Bitcell_array
module Params = Promise_arch.Params
module Th_unit = Promise_arch.Th_unit
module Selftest = Promise_arch.Selftest
module Fx = Promise_ml.Fixed_point
module E = Promise_core.Error
open Promise_isa

type bindings = {
  matrices : (string, float array array) Hashtbl.t;
  vectors : (string, float array) Hashtbl.t;
  flat_lengths : (string, int) Hashtbl.t;
}

let bindings () =
  {
    matrices = Hashtbl.create 8;
    vectors = Hashtbl.create 8;
    flat_lengths = Hashtbl.create 8;
  }

let bind_matrix b name m = Hashtbl.replace b.matrices name m
let bind_vector b name v = Hashtbl.replace b.vectors name v

let bind_flat b name data ~cols =
  if cols < 1 then invalid_arg "Runtime.bind_flat: cols must be >= 1";
  let len = Array.length data in
  let rows = (len + cols - 1) / cols in
  let m =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            let i = (r * cols) + c in
            if i < len then data.(i) else 0.0))
  in
  Hashtbl.replace b.matrices name m;
  Hashtbl.replace b.flat_lengths name len

type task_output = {
  values : float array;
  decision : (int * float) option;
}

type recovery = {
  max_retries : int;
  digital_fallback : bool;
  canary_tolerance : float;
  excluded_banks : int list;
  spared_lanes : int list;
}

let default_recovery =
  {
    max_retries = 2;
    digital_fallback = true;
    canary_tolerance = 0.25;
    excluded_banks = [];
    spared_lanes = [];
  }

let recovery_of_report (r : Selftest.report) =
  let excluded =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Selftest.finding) ->
           match f.Selftest.kind with
           | Selftest.Dead_bank -> Some f.Selftest.bank
           | Selftest.Dead_adc { stall_cycles } when stall_cycles = max_int ->
               Some f.Selftest.bank
           | _ -> None)
         r.Selftest.findings)
  in
  let spared =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Selftest.finding) ->
           match f.Selftest.kind with
           | Selftest.Stuck_lane { lane; _ } | Selftest.Dead_lane { lane } ->
               Some lane
           | _ -> None)
         r.Selftest.findings)
  in
  { default_recovery with excluded_banks = excluded; spared_lanes = spared }

type run_result = {
  outputs : (int * task_output) list;
  machine : Machine.t;
}

let ( let* ) = Result.bind
let fail ?code ?context fmt =
  Printf.ksprintf (fun msg -> E.fail ~layer:"runtime" ?code ?context msg) fmt

let required_banks ?max_lanes g =
  List.fold_left
    (fun acc (_, at) ->
      match
        Layout.plan ?max_lanes ~vector_len:at.At.vector_len
          ~rows:at.At.loop_iterations ()
      with
      | Ok p -> max acc p.Layout.banks
      | Error _ -> acc)
    1 (Graph.tasks g)

(* The scale that quantizes magnitudes up to [max_abs] with 1 % headroom. *)
let scale_of max_abs = if max_abs <= 0.0 then 1.0 else max_abs /. 0.99

let quantize_vec k v = Array.map (fun e -> Fx.quantize (e /. k)) v

(* One query's scales [(kw, kx, rescale)]: W's and X's quantization
   scales, and [rescale] such that true value = rescale × (digital value
   computed from the quantized data). Distance kernels share one joint
   scale, so an X larger than every W entry moves W's scale too; multiply
   kernels scale each side on its own. *)
let scales (at : At.t) ~w_max ~x_max =
  let by_reduction k =
    match at.At.red_op with
    | At.Ro_sum | At.Ro_sum_abs -> k
    | At.Ro_sum_square -> k *. k
    | At.Ro_sum_compare -> 1.0
  in
  match at.At.vec_op with
  | At.Vo_mul_signed | At.Vo_mul_unsigned ->
      let kw = scale_of w_max and kx = scale_of x_max in
      (kw, kx, kw *. kx)
  | At.Vo_add | At.Vo_sub ->
      let k = scale_of (Float.max w_max x_max) in
      (k, k, by_reduction k)
  | At.Vo_none ->
      let kw = scale_of w_max in
      (kw, kw, by_reduction kw)

(* W is static: it comes from the session's bindings, never from an
   edge, and each of its first [loop_iterations] rows is exactly
   [vector_len] wide (the layout would otherwise zero-pad a short row
   and drop a long row's tail without a word). *)
let resolve_w g b id (at : At.t) =
  let from_edge =
    List.exists
      (fun (_, port) -> Graph.equal_port port Graph.W_input)
      (Graph.predecessors g id)
  in
  if from_edge then
    fail ~code:E.Unsupported
      ~context:[ ("task", at.At.name) ]
      "W produced by another task is not supported"
  else
    match Hashtbl.find_opt b.matrices at.At.w with
    | None ->
        fail ~code:E.Invalid_operand
          ~context:[ ("task", at.At.name) ]
          "unbound W matrix %S" at.At.w
    | Some m when Array.length m < at.At.loop_iterations ->
        fail ~code:E.Invalid_operand
          ~context:[ ("task", at.At.name) ]
          "W matrix %S has %d rows, task needs %d" at.At.w (Array.length m)
          at.At.loop_iterations
    | Some m -> (
        let w = Array.sub m 0 at.At.loop_iterations in
        match
          Array.find_index (fun row -> Array.length row <> at.At.vector_len) w
        with
        | Some r ->
            fail ~code:E.Invalid_operand
              ~context:[ ("task", at.At.name); ("row", string_of_int r) ]
              "W matrix %S row %d has %d elements, expected %d" at.At.w r
              (Array.length w.(r)) at.At.vector_len
        | None -> Ok w)

let resolve_x g b outputs id (at : At.t) =
  if not (At.uses_x at) then Ok None
  else
    let from_edge =
      List.find_opt
        (fun (_, port) -> Graph.equal_port port Graph.X_input)
        (Graph.predecessors g id)
    in
    match from_edge with
    | Some (pid, _) -> (
        match Hashtbl.find_opt outputs pid with
        | Some out -> Ok (Some out.values)
        | None ->
            fail ~code:E.Internal
              ~context:[ ("task", at.At.name) ]
              "producer %d has no output yet" pid)
    | None -> (
        match Hashtbl.find_opt b.vectors at.At.x with
        | Some v -> Ok (Some v)
        | None ->
            fail ~code:E.Invalid_operand
              ~context:[ ("task", at.At.name) ]
              "unbound X vector %S" at.At.x)

(* Every 8-bit code's bit-cell value [code / 128], at [code + 128]: a
   load in place of a conversion and a division per lane. *)
let code_values =
  Array.init 256 (fun i -> Promise_core.Quant.dequantize8 (i - 128))

(* Lane [e] of a zero-padded slice: the value of code [a.(off + e)], or
   0 from [len] on. *)
let[@inline] lane_value a ~off ~len e =
  if e < len then code_values.(a.(off + e) + 128) else 0.0

let[@inline] compare_one s = if s >= 0.0 then 1.0 else 0.0

(* The ideal charge-share mean of bank [bank], segment [segment] of one
   row: the zero-padded slices {!Layout.slice_of_vector} would cut from W
   row [w] and from X (the [x_len] codes of [xs] from [x_off]; no X is
   [x_len = 0]), read in place, with noise, LUT shaping and ADC
   quantization removed. One lane loop per (vec_op, red_op) pair, the
   operator match outside it; a multiply's reduction reads its product
   as is. [*. 0.5] is the exact [/. 2.0]. Inlined so that its float
   result is never boxed. *)
let[@inline] partial_mean (at : At.t) (plan : Layout.plan) ~w ~xs ~x_off
    ~x_len ~bank ~segment =
  let lanes = plan.Layout.lanes_per_bank in
  let e0 = ((bank * plan.Layout.segments) + segment) * lanes in
  let e1 = e0 + lanes - 1 and w_len = Array.length w in
  let acc = ref 0.0 in
  (match (at.At.vec_op, at.At.red_op) with
  | At.Vo_mul_signed, _ ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. (w *. x)
      done
  | At.Vo_mul_unsigned, _ ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. (Float.abs w *. Float.abs x)
      done
  | At.Vo_add, At.Ro_sum ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. ((w +. x) *. 0.5)
      done
  | At.Vo_add, At.Ro_sum_abs ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. Float.abs ((w +. x) *. 0.5)
      done
  | At.Vo_add, At.Ro_sum_square ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        let s = (w +. x) *. 0.5 in
        acc := !acc +. (s *. s)
      done
  | At.Vo_add, At.Ro_sum_compare ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. compare_one ((w +. x) *. 0.5)
      done
  | At.Vo_sub, At.Ro_sum ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. ((w -. x) *. 0.5)
      done
  | At.Vo_sub, At.Ro_sum_abs ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. Float.abs ((w -. x) *. 0.5)
      done
  | At.Vo_sub, At.Ro_sum_square ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        let s = (w -. x) *. 0.5 in
        acc := !acc +. (s *. s)
      done
  | At.Vo_sub, At.Ro_sum_compare ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e
        and x = lane_value xs ~off:x_off ~len:x_len e in
        acc := !acc +. compare_one ((w -. x) *. 0.5)
      done
  | At.Vo_none, At.Ro_sum ->
      for e = e0 to e1 do
        acc := !acc +. lane_value w ~off:0 ~len:w_len e
      done
  | At.Vo_none, At.Ro_sum_abs ->
      for e = e0 to e1 do
        acc := !acc +. Float.abs (lane_value w ~off:0 ~len:w_len e)
      done
  | At.Vo_none, At.Ro_sum_square ->
      for e = e0 to e1 do
        let w = lane_value w ~off:0 ~len:w_len e in
        acc := !acc +. (w *. w)
      done
  | At.Vo_none, At.Ro_sum_compare ->
      for e = e0 to e1 do
        acc := !acc +. compare_one (lane_value w ~off:0 ~len:w_len e)
      done);
  !acc /. float_of_int lanes

(* ADC range matching: a digital preview of every per-bank charge-share
   mean picks the largest power-of-two pre-ADC gain that keeps the
   aggregate within ~0.7 of full scale (headroom for analog noise).
   Mirrors Bank's gain staging exactly, minus noise and LUT shaping.
   Every row of [w_codes] reads all of [x], or with [streaming] its own
   [vector_len]-long window of it. The scan stops at the first row that
   lifts [2 max_abs] past the target: [grow 1.0] is then 1.0, and later
   rows can only raise [max_abs]. Allocation-free. *)
let estimate_adc_gain (at : At.t) (plan : Layout.plan) ~w_codes ~x ~streaming
    =
  let vector_len = at.At.vector_len and target = 0.7 in
  let xs, x_len =
    match x with
    | Some xs -> (xs, if streaming then vector_len else Array.length xs)
    | None -> ([||], 0)
  in
  let max_abs = ref 0.0 and r = ref 0 in
  while !r < Array.length w_codes && 2.0 *. !max_abs <= target do
    let x_off = if streaming then !r * vector_len else 0 in
    for bank = 0 to plan.Layout.banks - 1 do
      for segment = 0 to plan.Layout.segments - 1 do
        let m =
          partial_mean at plan ~w:w_codes.(!r) ~xs ~x_off ~x_len ~bank
            ~segment
        in
        max_abs := Float.max !max_abs (Float.abs m)
      done
    done;
    incr r
  done;
  let max_abs = !max_abs in
  let rec grow g =
    if g >= 64.0 then 64.0
    else if 2.0 *. g *. max_abs <= target then grow (2.0 *. g)
    else g
  in
  if max_abs <= 0.0 then 64.0 else grow 1.0

let better_decision class4 (a : int * float) (b : (int * float) option) =
  match b with
  | None -> Some a
  | Some (_, bv) ->
      let _, av = a in
      let keep_a =
        match class4 with
        | Opcode.C4_min -> av < bv
        | Opcode.C4_max -> av > bv
        | _ -> false
      in
      if keep_a then Some a else b

let dest_xreg_index = Params.xreg_depth - 1

(* The digital reference for a chunk (the canary): the same per-bank
   charge-share means the analog path computes, with noise, LUT shaping
   and ADC quantization removed, fed through an identical TH unit. *)
let ideal_chunk (at : At.t) ~plan ~th ~w_rows ~x_row =
  let th_sim = Th_unit.create th in
  let emitted = ref [] in
  let collect (emit : Th_unit.emit) =
    match emit.Th_unit.des with
    | Opcode.Des_output_buffer -> emitted := emit.Th_unit.value :: !emitted
    | Opcode.Des_acc | Opcode.Des_xreg | Opcode.Des_write_buffer ->
        emitted := emit.Th_unit.value :: !emitted
  in
  let xs, x_len =
    match x_row with Some xs -> (xs, Array.length xs) | None -> ([||], 0)
  in
  let rows = Array.length w_rows in
  for i = 0 to (rows * plan.Layout.segments) - 1 do
    let r = i / plan.Layout.segments in
    let segment = i mod plan.Layout.segments in
    let combined = ref 0.0 in
    for bank = 0 to plan.Layout.banks - 1 do
      combined :=
        !combined
        +. partial_mean at plan ~w:w_rows.(r) ~xs ~x_off:0 ~x_len ~bank
             ~segment
    done;
    match Th_unit.push th_sim !combined with
    | Some e -> collect e
    | None -> ()
  done;
  (match Th_unit.finish th_sim with Some e -> collect e | None -> ());
  (List.rev !emitted, Th_unit.argext th_sim)

let canary_ok ~tolerance actual reference =
  List.length actual = List.length reference
  && List.for_all2
       (fun a r ->
         Float.abs (a -. r) <= tolerance *. Float.max 1.0 (Float.abs r))
       actual reference

(* Bank groups whose banks are all healthy (graceful degradation:
   excluded banks hold no data and execute no tasks). *)
let allowed_groups ~excluded ~(plan : Layout.plan) ~groups =
  let max_group = max 1 (groups / plan.Layout.banks) in
  let ok g =
    let first = g * plan.Layout.banks in
    not
      (List.exists
         (fun b -> b >= first && b < first + plan.Layout.banks)
         excluded)
  in
  List.filter ok (List.init max_group (fun g -> g))

(* Streaming X (one X vector per W row) re-loads X-REG for every row:
   one chunk per row. *)
let streaming (at : At.t) x_opt =
  match x_opt with
  | Some x ->
      at.At.loop_iterations > 1
      && Array.length x = at.At.vector_len * at.At.loop_iterations
  | None -> false

(* ------------------------------------------------------------------ *)
(* Sessions: W resident, X per query                                   *)
(* ------------------------------------------------------------------ *)

(* A node's placement for one shape of X — broadcast (one vector for
   every row) or streaming (one vector per row) — built on its first
   query of that shape: the layout plan, the lowered Tasks of a full and
   of the last row chunk, the lane mask, and where the chunks run. *)
type placement = {
  plan : Layout.plan;
  full : Task.t;
  last : Task.t;
  lane_mask : bool array option;
  mode : [ `Digital | `Analog of int array ];
}

type node = {
  id : int;
  at : At.t;
  terminal : bool;
  w : float array array;  (* [loop_iterations] rows of [vector_len] *)
  w_max : float;
  original_n : int;
  (* the quantized W at the last scale, keyed by the scale's bit pattern *)
  mutable codes : (int64 * int array array) option;
  mutable broadcast : placement option;
  mutable stream : placement option;
}

(* What one staging wrote into a bank group: row chunk [chunk] of node
   [node]'s W, quantized at the scale with bit pattern [scale] and placed
   for a [streaming] or broadcast X. A session's lane map is fixed for
   its life, so the token leaves it out. *)
type token = { node : int; streaming : bool; chunk : int; scale : int64 }

let same_token a b =
  a.node = b.node && Bool.equal a.streaming b.streaming && a.chunk = b.chunk
  && Int64.equal a.scale b.scale

type session = {
  machine : Machine.t;
  graph : Graph.t;
  nodes : node list;  (* topological order *)
  recovery : recovery option;
  pool : Promise_core.Pool.t option;
  lane_map : int array option;
  no_healthy_lanes : bool;
  (* per machine bank: the token of its last staging by this session and
     the bank's write epoch right after it *)
  resident : (token * int) option array;
}

let original_n b (at : At.t) =
  match Hashtbl.find_opt b.flat_lengths at.At.w with
  | Some n -> n
  | None -> at.At.vector_len * at.At.loop_iterations

let session ?recovery ?pool machine g static =
  let* nodes =
    List.fold_left
      (fun acc id ->
        let* nodes = acc in
        let at = Graph.task g id in
        let* w = resolve_w g static id at in
        Ok
          ({
             id;
             at;
             terminal = Graph.successors g id = [];
             w;
             w_max = Promise_ml.Linalg.mat_max_abs w;
             original_n = original_n static at;
             codes = None;
             broadcast = None;
             stream = None;
           }
          :: nodes))
      (Ok []) (Graph.topological_order g)
  in
  (* Lane sparing: plan around the faulty columns and scatter slices
     onto the healthy physical lanes. When every lane is faulty the
     spare map is empty and no analog plan exists. *)
  let spared =
    List.sort_uniq compare
      (List.filter
         (fun l -> l >= 0 && l < Params.lanes)
         (match recovery with
         | Some (r : recovery) -> r.spared_lanes
         | None -> []))
  in
  let lane_map, no_healthy_lanes =
    if spared = [] then (None, false)
    else
      let map = Layout.spare_map ~faulty:spared in
      if Array.length map = 0 then (None, true) else (Some map, false)
  in
  Ok
    {
      machine;
      graph = g;
      nodes = List.rev nodes;
      recovery;
      pool;
      lane_map;
      no_healthy_lanes;
      resident = Array.make (Machine.n_banks machine) None;
    }

let placement s node ~streaming =
  match if streaming then node.stream else node.broadcast with
  | Some p -> Ok p
  | None ->
      let at = node.at in
      let fallback_enabled =
        match s.recovery with Some r -> r.digital_fallback | None -> false
      in
      (* With every lane spared and digital fallback enabled, the whole
         task degrades to the host-side digital reference. *)
      let* () =
        if s.no_healthy_lanes && not fallback_enabled then
          fail ~code:E.Capacity
            ~context:[ ("task", at.At.name) ]
            "every lane is spared and digital fallback is disabled"
        else Ok ()
      in
      let* plan =
        Result.map_error (E.of_string ~layer:"runtime")
          (Layout.plan
             ?max_lanes:(Option.map Array.length s.lane_map)
             ~vector_len:at.At.vector_len
             ~rows:(if streaming then 1 else at.At.loop_iterations)
             ())
      in
      let lower (plan : Layout.plan) =
        Lower.lower_chunk ~terminal:node.terminal at ~plan ~chunk:0 ~w_base:0
          ~xreg_base:0
      in
      let* full = lower plan in
      let last_rows = Layout.chunk_rows plan (plan.Layout.tasks - 1) in
      let* last =
        if last_rows = plan.Layout.rows_per_task then Ok full
        else
          lower
            {
              plan with
              Layout.rows = last_rows;
              rows_per_task = last_rows;
              tasks = 1;
            }
      in
      (* [`Digital]: no analog resource can serve this task (every bank
         group excluded, or every lane spared) — with fallback enabled,
         every chunk is served by the host-side digital reference. *)
      let excluded =
        match s.recovery with Some r -> r.excluded_banks | None -> []
      in
      let* mode =
        match
          allowed_groups ~excluded ~plan ~groups:(Machine.n_banks s.machine)
        with
        | [] when fallback_enabled -> Ok `Digital
        | [] ->
            fail ~code:E.Capacity
              ~context:[ ("task", at.At.name) ]
              "every bank group overlaps an excluded bank"
        | _ when s.no_healthy_lanes -> Ok `Digital
        | l -> Ok (`Analog (Array.of_list l))
      in
      let lane_mask =
        Option.map
          (fun map ->
            Layout.lane_mask_of_map map ~used:plan.Layout.lanes_per_bank)
          s.lane_map
      in
      let p = { plan; full; last; lane_mask; mode } in
      if streaming then node.stream <- Some p else node.broadcast <- Some p;
      Ok p

(* W quantized at [scale]: the cached codes when the scale is the one
   they were quantized at. *)
let w_codes node ~scale =
  let bits = Int64.bits_of_float scale in
  match node.codes with
  | Some (b, codes) when Int64.equal b bits -> codes
  | Some _ | None ->
      let codes = Array.map (quantize_vec scale) node.w in
      node.codes <- Some (bits, codes);
      codes

(* Stage a chunk's W rows into each bank of group [group] that does not
   still hold its slices: this session's last staging there wrote
   [token], and no write of anyone's has moved the bank's epoch since.
   Each bank's slices are independent of the others', staging draws no
   noise, and writing the same codes again changes nothing, so skipping
   a held bank is exact. *)
let stage s ~token ~group ~(plan : Layout.plan) w_rows =
  let first = group * plan.Layout.banks in
  let epoch b = Bitcell_array.epoch (Bank.array (Machine.bank s.machine b)) in
  for bank = 0 to plan.Layout.banks - 1 do
    let b = first + bank in
    let held =
      b < Array.length s.resident
      &&
      match s.resident.(b) with
      | Some (t, e) -> same_token t token && e = epoch b
      | None -> false
    in
    if not held then begin
      Machine.load_weights ?lane_map:s.lane_map ~bank s.machine ~group ~base:0
        ~plan w_rows;
      s.resident.(b) <- Some (token, epoch b)
    end
  done

(* [run_node s node ~x ~batch] runs [batch] decisions of one
   graph node, chunk by chunk: each chunk stages its W rows into the
   banks that no longer hold them, loads X once, and its decisions ride
   [Machine.execute_batch] (or, canary-checked, [Machine.execute] per
   decision and retry). Element [d] of the result is decision [d]'s
   output. At batch 1 this is the node's single run. *)
let run_node s node ~x ~batch =
  let at = node.at in
  let* () =
    match x with
    | Some x
      when Array.length x <> at.At.vector_len
           && Array.length x <> at.At.vector_len * at.At.loop_iterations ->
        fail ~code:E.Invalid_operand
          ~context:[ ("task", at.At.name) ]
          "X has %d elements, expected %d (broadcast) or %d (streaming)"
          (Array.length x) at.At.vector_len
          (at.At.vector_len * at.At.loop_iterations)
    | _ -> Ok ()
  in
  let streaming = streaming at x in
  let x_max =
    match x with Some x -> Promise_ml.Linalg.max_abs x | None -> 0.0
  in
  let kw, kx, rescale = scales at ~w_max:node.w_max ~x_max in
  let w_codes = w_codes node ~scale:kw in
  let x_codes = Option.map (quantize_vec kx) x in
  let* p = placement s node ~streaming in
  let plan = p.plan in
  let adc_gain = estimate_adc_gain at plan ~w_codes ~x:x_codes ~streaming in
  let class4 = p.full.Task.class4 in
  let gain =
    float_of_int plan.Layout.lanes_per_bank
    *. Bank.analog_scale p.full *. rescale
  in
  let scale = Int64.bits_of_float kw in
  let n_chunks = if streaming then at.At.loop_iterations else plan.Layout.tasks in
  (* per decision, each chunk's values, newest first *)
  let values = Array.make batch [] and decisions = Array.make batch None in
  let rec go chunk row_offset =
    if chunk >= n_chunks then Ok ()
    else
      let rows_c = if streaming then 1 else Layout.chunk_rows plan chunk in
      let task = if rows_c = plan.Layout.rows_per_task then p.full else p.last in
      let w_rows =
        if streaming then [| w_codes.(chunk) |]
        else Array.sub w_codes (chunk * plan.Layout.rows_per_task) rows_c
      in
      let x_chunk =
        if streaming then
          Option.map
            (fun xc ->
              Array.sub xc (chunk * at.At.vector_len) at.At.vector_len)
            x_codes
        else x_codes
      in
      let th =
        {
          Th_unit.op = class4;
          acc_num = task.Task.op_param.Op_param.acc_num;
          threshold = at.At.threshold;
          gain;
          des = task.Task.op_param.Op_param.des;
        }
      in
      let* outcomes =
        match p.mode with
        | `Digital ->
            let fallback = ideal_chunk at ~plan ~th ~w_rows ~x_row:x_chunk in
            Ok (Array.make batch (`Fallback fallback))
        | `Analog allowed ->
            let group = allowed.(chunk mod Array.length allowed) in
            stage s
              ~token:{ node = node.id; streaming; chunk; scale }
              ~group ~plan w_rows;
            (match x_chunk with
            | Some xc ->
                Machine.load_x ?lane_map:s.lane_map s.machine ~group
                  ~xreg_base:0 ~plan xc
            | None -> ());
            let launch =
              {
                Machine.task;
                bank_group = group;
                active_lanes = plan.Layout.lanes_per_bank;
                adc_gain;
                th;
                dest_xreg = dest_xreg_index;
              }
            in
            let lane_mask = p.lane_mask and pool = s.pool in
            (* The canary-checked retry/fallback path applies to chunks
               whose emissions go to the output buffer: re-executing
               them is side-effect-free (X-REG/write-buffer staging is
               not). *)
            let checked =
              s.recovery <> None
              && Opcode.equal_destination task.Task.op_param.Op_param.des
                   Opcode.Des_output_buffer
            in
            if not checked then
              let* results =
                Machine.execute_batch ?lane_mask ?pool s.machine launch ~batch
              in
              Ok (Array.map (fun r -> `Accepted r) results)
            else
              let r = Option.get s.recovery in
              let reference, ref_argext =
                ideal_chunk at ~plan ~th ~w_rows ~x_row:x_chunk
              in
              let rec attempt tries =
                let* result =
                  Machine.execute ?lane_mask ?pool s.machine launch
                in
                if
                  canary_ok ~tolerance:r.canary_tolerance
                    result.Machine.emitted reference
                then Ok (`Accepted result)
                else if tries < r.max_retries then attempt (tries + 1)
                else if r.digital_fallback then
                  Ok (`Fallback (reference, ref_argext))
                else
                  fail ~code:E.Retry_exhausted
                    ~context:
                      [ ("task", at.At.name); ("chunk", string_of_int chunk) ]
                    "analog result failed its canary bound %d times"
                    (r.max_retries + 1)
              in
              let rec decide acc d =
                if d = batch then Ok (Array.of_list (List.rev acc))
                else
                  let* o = attempt 0 in
                  decide (o :: acc) (d + 1)
              in
              decide [] 0
      in
      Array.iteri
        (fun d outcome ->
          let argext =
            match outcome with
            | `Accepted result ->
                values.(d) <-
                  result.Machine.xreg_out :: result.Machine.emitted :: values.(d);
                result.Machine.argext
            | `Fallback (reference, ref_argext) ->
                values.(d) <- reference :: values.(d);
                ref_argext
          in
          match argext with
          | Some (gidx, v) ->
              decisions.(d) <-
                better_decision class4 (row_offset + gidx, v) decisions.(d)
          | None -> ())
        outcomes;
      go (chunk + 1) (row_offset + rows_c)
  in
  let* () = go 0 0 in
  (* Decision tasks surface their extremum; mean tasks reduce on host. *)
  Ok
    (Array.mapi
       (fun d chunks ->
         let values = Array.of_list (List.concat (List.rev chunks)) in
         match at.At.digital_op with
         | At.Do_mean ->
             let total = Array.fold_left ( +. ) 0.0 values in
             {
               values = [| total /. float_of_int node.original_n |];
               decision = None;
             }
         | At.Do_min | At.Do_max -> { values; decision = decisions.(d) }
         | At.Do_none | At.Do_sigmoid | At.Do_relu | At.Do_threshold ->
             { values; decision = None })
       values)

(* One decision of the whole graph, node by node in topological order. *)
let decide s b =
  let outputs = Hashtbl.create 8 in
  let* () =
    List.fold_left
      (fun acc node ->
        let* () = acc in
        let* x = resolve_x s.graph b outputs node.id node.at in
        let* out = run_node s node ~x ~batch:1 in
        Hashtbl.replace outputs node.id out.(0);
        Ok ())
      (Ok ()) s.nodes
  in
  Ok
    {
      outputs = List.map (fun n -> (n.id, Hashtbl.find outputs n.id)) s.nodes;
      machine = s.machine;
    }

(* Consulted once per decision before the query's first launch, so the
   machine is untouched when the injected fault surfaces — retrying the
   whole query is stream-safe. *)
let injected_fault () =
  match Promise_core.Failpoint.check "runtime.run" with
  | Some Promise_core.Failpoint.Fail ->
      E.fail ~layer:"runtime" ~code:E.Fault
        ~context:[ ("injected", "true") ]
        "injected runtime fault"
  | Some (Promise_core.Failpoint.Delay ns) ->
      Promise_core.Clock.sleep_ms (Int64.to_float ns /. 1e6);
      Ok ()
  | Some Promise_core.Failpoint.Interrupt | None -> Ok ()

let query s b ~batch =
  let rec repeat n f =
    if n = 0 then Ok ()
    else
      let* () = f () in
      repeat (n - 1) f
  in
  let decision_major () =
    let rec go acc d =
      if d = batch then Ok (Array.of_list (List.rev acc))
      else
        let* r = decide s b in
        go (r :: acc) (d + 1)
    in
    go [] 0
  in
  if batch < 1 then
    E.fail ~layer:"runtime" ~code:E.Invalid_operand
      ~context:[ ("batch", string_of_int batch) ]
      "batch must be >= 1"
  else
    let* () = repeat batch injected_fault in
    match s.nodes with
    | [ node ] when batch > 1 && s.recovery = None -> (
        let* x = resolve_x s.graph b (Hashtbl.create 1) node.id node.at in
        let streaming = streaming node.at x in
        let* p = placement s node ~streaming in
        (* Chunk-major batching — each chunk's operands loaded once, all
           decisions on [Machine.execute_batch] — is bit-identical to
           deciding one decision at a time when every chunk owns its
           bank group: each group's RNG streams then see exactly their
           own decisions in order, and operand loads are idempotent.
           Streaming X re-loads X-REG per row (one chunk per row), and
           more chunks than groups would interleave two chunks on one
           group's streams. *)
        match p.mode with
        | `Analog groups
          when (not streaming) && p.plan.Layout.tasks <= Array.length groups
          ->
            let* outs = run_node s node ~x ~batch in
            Ok
              (Array.map
                 (fun o -> { outputs = [ (node.id, o) ]; machine = s.machine })
                 outs)
        | `Analog _ | `Digital -> decision_major ())
    | _ -> decision_major ()

let default_machine g =
  Machine.create
    {
      Machine.banks = required_banks g;
      profile = Bank.Silicon;
      noise_seed = Some 42;
    }

let run_batch ?machine ?recovery ?pool g b ~batch =
  let machine =
    match machine with Some m -> m | None -> default_machine g
  in
  let* s = session ?recovery ?pool machine g b in
  query s b ~batch

let run ?machine ?recovery ?pool g b =
  let* rs = run_batch ?machine ?recovery ?pool g b ~batch:1 in
  Ok rs.(0)

let final_output r =
  match List.rev r.outputs with
  | (_, o) :: _ -> Ok o
  | [] -> E.fail ~layer:"runtime" ~code:E.Internal "empty run result"

module For_tests = struct
  let estimate_adc_gain = estimate_adc_gain
end
