module Diag = Promise_core.Diag
module At = Promise_ir.Abstract_task
module Graph = Promise_ir.Graph
module Layout = Promise_arch.Layout

type bounds = { lo : float; hi : float }

(* Largest positive code of the signed 8-bit datapath: 127/128. *)
let code_max = 127.0 /. 128.0
let full_range = { lo = -1.0; hi = code_max }

let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
let scale a k =
  if k >= 0.0 then { lo = a.lo *. k; hi = a.hi *. k }
  else { lo = a.hi *. k; hi = a.lo *. k }

let mul a b =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi in
  let p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  {
    lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
    hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
  }

let abs_bounds a =
  if a.lo >= 0.0 then a
  else if a.hi <= 0.0 then { lo = -.a.hi; hi = -.a.lo }
  else { lo = 0.0; hi = Float.max (-.a.lo) a.hi }

let square a =
  let b = abs_bounds a in
  { lo = b.lo *. b.lo; hi = b.hi *. b.hi }

let clamp a ~lo ~hi = { lo = Float.max lo a.lo; hi = Float.min hi a.hi }

type node_report = {
  node : int;
  name : string;
  emitted : bounds;
  quantized : bool;
  saturates : bool;
}

(* ---- The abstract state, re-hosted on Dataflow ----

   The fact flowing forward through the AbstractTask DAG is an
   environment: for every upstream node, the interval its consumers
   see plus whether it saturated. Join is pointwise interval hull /
   boolean or — a node reachable along two paths (a diamond) gets the
   union of what each path proved, which on this DAG is always the
   same single-assignment entry, so the hull is exact. *)

type fact = { bounds : bounds; sat : bool }

module Env = struct
  (* sorted association list keyed by node id: cheap structural
     equality, deterministic join *)
  type t = (int * fact) list

  let bottom = []

  let equal (a : t) (b : t) = a = b

  let rec join a b =
    match (a, b) with
    | [], e | e, [] -> e
    | (ka, fa) :: ra, (kb, fb) :: rb ->
        if ka < kb then (ka, fa) :: join ra b
        else if kb < ka then (kb, fb) :: join a rb
        else
          let hull =
            {
              bounds =
                {
                  lo = Float.min fa.bounds.lo fb.bounds.lo;
                  hi = Float.max fa.bounds.hi fb.bounds.hi;
                };
              sat = fa.sat || fb.sat;
            }
          in
          (ka, hull) :: join ra rb

  let find id (e : t) = List.assoc_opt id e

  let bind id f (e : t) =
    let rec go = function
      | [] -> [ (id, f) ]
      | (k, _) :: r when k = id -> (id, f) :: r
      | (k, v) :: r when k < id -> (k, v) :: go r
      | r -> (id, f) :: r
    in
    go e
end

module Solver = Dataflow.Make (Env)

(* [step g id env] — the single-node datapath semantics: the value
   node [id] emits given the environment of producer facts, plus the
   saturation verdict. This is the one place the abstract semantics
   live; both the fixpoint transfer and the diagnostic emission call
   it, which is what keeps the two in lockstep. *)
type verdict = {
  emitted_v : bounds;
  quantized_v : bool;
  saturates_v : bool;
  post : bounds;
  placed : (unit, string) result;
}

let step g id (env : Env.t) =
  let at = Graph.task g id in
  match
    Layout.plan ~vector_len:at.At.vector_len ~rows:at.At.loop_iterations ()
  with
  | Error msg ->
      {
        emitted_v = full_range;
        quantized_v = false;
        saturates_v = false;
        post = full_range;
        placed = Error msg;
      }
  | Ok plan ->
      let segments = plan.Layout.segments in
      let preds = Graph.predecessors g id in
      let x =
        match
          List.find_opt
            (fun (_, port) -> Graph.equal_port port Graph.X_input)
            preds
        with
        | Some (p, _) -> (
            (* the producer's value reaches X through an 8-bit
               register surface *)
            match Env.find p env with
            | Some f -> clamp f.bounds ~lo:(-1.0) ~hi:code_max
            | None -> full_range)
        | None -> full_range (* host-preloaded X-REG codes *)
      in
      let w = full_range in
      let elem =
        match at.At.vec_op with
        | At.Vo_none -> w
        | At.Vo_add -> scale (add w x) 0.5
        | At.Vo_sub -> scale (sub w x) 0.5
        | At.Vo_mul_signed -> mul w x
        | At.Vo_mul_unsigned -> mul w (abs_bounds x)
      in
      let shaped =
        match at.At.red_op with
        | At.Ro_sum -> elem
        | At.Ro_sum_abs -> abs_bounds elem
        | At.Ro_sum_square -> square elem
        | At.Ro_sum_compare -> { lo = 0.0; hi = 1.0 }
      in
      (* Charge-sharing is a mean over lanes (interval-preserving);
         the ADC clamps each sample to ±1 full scale. *)
      let sample = clamp shaped ~lo:(-1.0) ~hi:1.0 in
      (* The TH stage accumulates ACC_NUM+1 = segments samples per
         emitted value. *)
      let acc = scale sample (float_of_int segments) in
      let post =
        match at.At.digital_op with
        | At.Do_none -> acc
        | At.Do_mean -> scale acc (1.0 /. float_of_int segments)
        | At.Do_sigmoid -> { lo = 0.0; hi = 1.0 }
        | At.Do_relu -> { lo = 0.0; hi = Float.max 0.0 acc.hi }
        | At.Do_threshold -> { lo = 0.0; hi = 1.0 }
        | At.Do_min | At.Do_max -> acc
      in
      let terminal = Graph.successors g id = [] in
      (* Mirror of Lower.destination_of: only intermediate
         sigmoid/relu activations land in the 8-bit X-REG; terminal
         results go to the (host-float) output buffer. *)
      let quantized =
        match at.At.digital_op with
        | At.Do_sigmoid | At.Do_relu -> not terminal
        | _ -> false
      in
      let saturates = quantized && (post.lo < -1.0 || post.hi > 1.0) in
      let out = if quantized then clamp post ~lo:(-1.0) ~hi:code_max else post in
      {
        emitted_v = out;
        quantized_v = quantized;
        saturates_v = saturates;
        post;
        placed = Ok ();
      }

let analyze g =
  (* Phase 1: solve the environment fixpoint over the DAG. *)
  let flow = Dataflow.of_task_graph g in
  let solved =
    Solver.solve ~direction:Dataflow.Forward ~graph:flow
      ~transfer:(fun id env ->
        let v = step g id env in
        Env.bind id { bounds = v.emitted_v; sat = v.saturates_v } env)
      ()
  in
  (* Phase 2: replay the node semantics over the solved facts in
     topological order to emit reports and diagnostics — same values,
     same order, same messages as the single-walk original. *)
  let diags = ref [] in
  let add_diag d = diags := d :: !diags in
  let reports = ref [] in
  List.iter
    (fun id ->
      let at = Graph.task g id in
      let span = Diag.Node id in
      let env = solved.Solver.entry.(id) in
      let v = step g id env in
      match v.placed with
      | Error msg ->
          add_diag
            (Diag.errorf ~code:"P-OVF-004" ~span
               "task %S has no bank placement: %s" at.At.name msg)
      | Ok () ->
          (* P-OVF-002: inheriting a clamped (saturated) operand *)
          List.iter
            (fun (p, _) ->
              match Env.find p env with
              | Some { sat = true; _ } ->
                  add_diag
                    (Diag.warningf ~code:"P-OVF-002" ~span
                       "task %S reads the saturated output of task %d"
                       at.At.name p)
              | _ -> ())
            (Graph.predecessors g id);
          if v.saturates_v then
            add_diag
              (Diag.errorf ~code:"P-OVF-001" ~span
                 "task %S emits [%.3f, %.3f] into an 8-bit register that \
                  holds [-1, %.3f]: values saturate"
                 at.At.name v.post.lo v.post.hi code_max);
          reports :=
            {
              node = id;
              name = at.At.name;
              emitted = v.emitted_v;
              quantized = v.quantized_v;
              saturates = v.saturates_v;
            }
            :: !reports)
    (Graph.topological_order g);
  (List.rev !reports, Diag.sort (List.rev !diags))

(* ---- Sakr-style precision feasibility (paper §4.3) ----

   Mirrors Promise_compiler.Precision.min_activation_bits at the fixed
   weight precision of the 8-bit datapath; test_lint cross-checks the
   two implementations stay equal. The dependency points this way
   (compiler depends on analysis), hence the re-derivation. *)

let weight_bits = 7
let delta ~bits = 2.0 ** float_of_int (-(bits - 1))

let min_bits ~ea ~ew ~pm =
  if pm <= 0.0 then Error "mismatch probability must be positive"
  else
    let dw = delta ~bits:weight_bits in
    let weight_term = dw *. dw *. ew in
    if weight_term >= pm then
      Error
        (Printf.sprintf
           "weight quantization alone (%.4g) exceeds the p_m budget %.4g"
           weight_term pm)
    else
      let rec search ba =
        if ba > 16 then Error "activation precision above 16 bits required"
        else
          let da = delta ~bits:ba in
          if (da *. da *. ea) +. weight_term <= pm then Ok ba
          else search (ba + 1)
      in
      search 1

let check_stats ~ea ~ew ~pm =
  match min_bits ~ea ~ew ~pm with
  | Error msg ->
      [
        Diag.errorf ~code:"P-OVF-003"
          "precision assignment infeasible at p_m = %.4g: %s" pm msg;
      ]
  | Ok ba when ba > 8 ->
      [
        Diag.errorf ~code:"P-OVF-003"
          "meeting p_m = %.4g needs %d activation bits; the PROMISE datapath \
           is 8-bit"
          pm ba;
      ]
  | Ok _ -> []

module For_tests = struct
  let weight_bits = weight_bits
  let min_bits = min_bits
end
