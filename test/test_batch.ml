(* Differential tests for the batch-dimension execution engine: N
   batched decisions must be bit-identical to N sequential
   single-decision runs — against both the fused path and the scalar
   reference oracle — across task shapes, fault profiles, swing/launch
   configurations and batch sizes (including N = 1, pool width, and
   ragged chained batches), every destination included. Plus: the
   [machine.execute] failpoint on the plane and the [runtime.run]
   failpoint on batched runs, the zero-allocation serving path's Gc
   property, the pipelined-timing closed form (Scheduler.For_tests.run_batch),
   runtime sessions (queries on resident W == fresh runs), and typed
   validation of --batch / PROMISE_BATCH. *)

module P = Promise
module Arch = P.Arch
module Machine = Arch.Machine
module Scheduler = Arch.Scheduler
module Faults = Arch.Faults
module Rng = P.Analog.Rng
module Task = P.Isa.Task
module Op = P.Isa.Opcode
module Op_param = P.Isa.Op_param
module Program = P.Isa.Program
module Dsl = P.Ir.Dsl
module Graph = P.Ir.Graph
module At = P.Ir.Abstract_task
module Rt = P.Compiler.Runtime
module Pipeline = P.Compiler.Pipeline
module Pool = P.Pool
module Fp = P.Failpoint
module E = P.Error

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let fok = function Ok v -> v | Error e -> Alcotest.fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* QCheck: batched == N sequential singles, fused AND reference        *)
(* ------------------------------------------------------------------ *)

type case = {
  seed : int;
  noisy : bool;
  profile : int;  (** 0 Ideal, 1 Silicon, 2 Custom lut, 3 Custom leakage *)
  banks_log : int;
  mb : int;
  rpt : int;
  shape : int;  (** includes a shape with no fused kernel *)
  fault : int;
  masked : bool;
  active_lanes : int;
  gain_log : int;
  swing : int;
  x_prd : int;
  des : int;  (** 0 output buffer, 1 acc, 2 X-REG, 3 write buffer *)
  dest_xreg : int;
  batch : int;
}

let gen_case st =
  let open QCheck.Gen in
  let banks_log = int_range 0 3 st in
  {
    seed = int_bound 10_000 st;
    noisy = bool st;
    profile = int_bound 3 st;
    banks_log;
    mb = int_range 0 banks_log st;
    rpt = int_bound 127 st;
    shape = int_bound 6 st;
    fault = int_bound 5 st;
    masked = bool st;
    active_lanes = int_range 1 128 st;
    gain_log = int_bound 2 st;
    swing = int_bound 7 st;
    x_prd = int_bound 3 st;
    des = int_bound 3 st;
    (* rows 0..3 are the ones X addressing can read: weight them *)
    dest_xreg = frequency [ (3, int_bound 3); (1, int_range 4 7) ] st;
    batch = oneofl [ 1; 2; 3; 4; 8; 16; 33 ] st;
  }

let print_case c =
  Printf.sprintf
    "{seed=%d; noisy=%b; profile=%d; banks=%d; mb=%d; rpt=%d; shape=%d; \
     fault=%d; masked=%b; lanes=%d; gain=%d; swing=%d; x_prd=%d; des=%d; \
     dest_xreg=%d; batch=%d}"
    c.seed c.noisy c.profile (1 lsl c.banks_log) c.mb c.rpt c.shape c.fault
    c.masked c.active_lanes (1 lsl c.gain_log) c.swing c.x_prd c.des
    c.dest_xreg c.batch

let task_of c =
  let op_param =
    {
      Op_param.default with
      swing = c.swing;
      w_addr = c.seed mod 64;
      x_addr1 = 1;
      x_addr2 = 2;
      x_prd = c.x_prd;
      des =
        (match c.des with
        | 0 -> Op.Des_output_buffer
        | 1 -> Op.Des_acc
        | 2 -> Op.Des_xreg
        | _ -> Op.Des_write_buffer);
    }
  in
  let mk ~class1 ~asd ~avd ~class3 ~class4 =
    Task.make ~op_param ~rpt_num:c.rpt ~multi_bank:c.mb ~class1
      ~class2:{ Op.asd; avd } ~class3 ~class4 ()
  in
  match c.shape with
  | 0 ->
      mk ~class1:Op.C1_aread ~asd:Op.Asd_sign_mult ~avd:true ~class3:Op.C3_adc
        ~class4:Op.C4_accumulate
  | 1 ->
      mk ~class1:Op.C1_aread ~asd:Op.Asd_unsign_mult ~avd:true
        ~class3:Op.C3_adc ~class4:Op.C4_max
  | 2 ->
      mk ~class1:Op.C1_asubt ~asd:Op.Asd_absolute ~avd:true ~class3:Op.C3_adc
        ~class4:Op.C4_accumulate
  | 3 ->
      mk ~class1:Op.C1_aadd ~asd:Op.Asd_square ~avd:true ~class3:Op.C3_adc
        ~class4:Op.C4_min
  | 4 ->
      mk ~class1:Op.C1_aread ~asd:Op.Asd_compare ~avd:true ~class3:Op.C3_adc
        ~class4:Op.C4_accumulate
  | 5 ->
      mk ~class1:Op.C1_asubt ~asd:Op.Asd_none ~avd:true ~class3:Op.C3_adc
        ~class4:Op.C4_accumulate
  | _ ->
      (* aVD off: no fused kernel — every decision runs the scalar
         loop and must still be bit-identical *)
      mk ~class1:Op.C1_aread ~asd:Op.Asd_none ~avd:false ~class3:Op.C3_none
        ~class4:Op.C4_accumulate

let faults_of c =
  match c.fault with
  | 0 -> Faults.none
  | 1 ->
      fok
        (Faults.with_dead_lane
           (fok (Faults.with_stuck_lane Faults.none ~lane:7 ~code:42))
           ~lane:3)
  | 2 -> fok (Faults.with_xreg_flips Faults.none ~seed:(c.seed + 1) ~rate:0.3)
  | 3 ->
      fok
        (Faults.with_swing_drift (Faults.with_adc_offset Faults.none 0.05) 2)
  | 4 -> fok (Faults.with_leakage_mult Faults.none 3.0)
  | _ -> Faults.with_dead_bank Faults.none

(* Two machines built from the same case are identical by construction:
   same seed, same split noise streams, same data image, same faults. *)
let machine_of c =
  let profile =
    match c.profile with
    | 0 -> Arch.Bank.Ideal
    | 1 -> Arch.Bank.Silicon
    | 2 -> Arch.Bank.Custom { lut = true; leakage = false }
    | _ -> Arch.Bank.Custom { lut = false; leakage = true }
  in
  let m =
    Machine.create
      {
        Machine.banks = 1 lsl c.banks_log;
        profile;
        noise_seed = (if c.noisy then Some c.seed else None);
      }
  in
  let rng = Rng.create ((c.seed * 13) + 7) in
  let codes () =
    Array.init Arch.Params.lanes (fun _ -> Rng.int rng 255 - 128)
  in
  for bi = 0 to Machine.n_banks m - 1 do
    let bank = Machine.bank m bi in
    for row = 0 to 63 do
      Arch.Bitcell_array.write (Arch.Bank.array bank) ~word_row:row (codes ())
    done;
    for i = 0 to Arch.Params.xreg_depth - 1 do
      Arch.Xreg.load (Arch.Bank.xreg bank) ~index:i (codes ())
    done
  done;
  Arch.Bank.set_faults (Machine.bank m 0) (faults_of c);
  m

let launch_of c task =
  {
    (Machine.default_launch task) with
    Machine.active_lanes = c.active_lanes;
    adc_gain = float_of_int (1 lsl c.gain_log);
    dest_xreg = c.dest_xreg;
  }

let lane_mask_of c =
  if c.masked then Some (Array.init Arch.Params.lanes (fun i -> i mod 3 <> 0))
  else None

let same_result (a : Machine.result) (b : Machine.result) =
  a.emitted = b.emitted && a.acc_out = b.acc_out && a.xreg_out = b.xreg_out
  && a.write_buffer = b.write_buffer
  && a.argext = b.argext && a.digital = b.digital

(* [batch] sequential executes on a fresh twin machine. *)
let run_singles c mode =
  let m = machine_of c in
  let launch = launch_of c (task_of c) in
  let lane_mask = lane_mask_of c in
  let rec go n acc =
    if n = 0 then Ok (Array.of_list (List.rev acc))
    else
      match Machine.execute ?lane_mask ~kernel_mode:mode m launch with
      | Ok r -> go (n - 1) (r :: acc)
      | Error e -> Error (E.to_string e)
  in
  go c.batch []

let run_batched c mode =
  let m = machine_of c in
  let launch = launch_of c (task_of c) in
  let lane_mask = lane_mask_of c in
  match Machine.execute_batch ?lane_mask ~kernel_mode:mode m launch
          ~batch:c.batch
  with
  | Ok rs -> Ok rs
  | Error e -> Error (E.to_string e)

let same_results a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> same_result x y) a b

let ba_create n = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n

(* [execute_batch_into] on a fresh twin machine: the [out] buffer read
   back as one emission stream per decision. *)
let run_into c mode =
  let task = task_of c in
  let launch = launch_of c task in
  let epd = Machine.emissions_per_decision task ~th:launch.Machine.th in
  let out = ba_create (c.batch * epd) in
  match
    Machine.execute_batch_into ?lane_mask:(lane_mask_of c) ~kernel_mode:mode
      (machine_of c) launch ~batch:c.batch ~out
  with
  | Ok n when n = epd ->
      Ok
        (Array.init c.batch (fun d ->
             List.init n (fun g -> Int64.bits_of_float out.{(d * n) + g})))
  | Ok n -> Error (Printf.sprintf "returned %d emissions, sized for %d" n epd)
  | Error e -> Error (E.to_string e)

let stream_of (r : Machine.result) =
  List.map Int64.bits_of_float (r.emitted @ r.acc_out)

(* Batched decisions equal fused and reference sequential singles, and
   [execute_batch_into] writes exactly [execute_batch]'s emission stream
   in both kernel modes — every destination, the no-kernel shape and
   X-REG flip profiles included. *)
let qcheck_batched_eq_singles =
  QCheck.Test.make ~name:"execute_batch == N sequential executes" ~count:40
    (QCheck.make ~print:print_case gen_case) (fun c ->
      let ref_singles = run_singles c Machine.Reference in
      let fus_singles = run_singles c Machine.Fused in
      let batched = run_batched c Machine.Fused in
      let into_ref = run_into c Machine.Reference in
      let into_fus = run_into c Machine.Fused in
      match (ref_singles, fus_singles, batched, into_ref, into_fus) with
      | Ok rs, Ok fs, Ok bs, Ok ir, Ok iff ->
          let streams = Array.map stream_of bs in
          same_results rs fs && same_results fs bs && ir = streams
          && iff = streams
      | Error e1, Error e2, Error e3, Error e4, Error e5 ->
          e1 = e2 && e2 = e3 && e3 = e4 && e4 = e5
      | _ -> false)

(* RNG stream continuity: chunked ragged batches (5 then 3) on ONE
   machine equal one batch of 8 on a twin, equal 8 sequential singles
   on a third — against both kernel modes. *)
let test_ragged_chained () =
  List.iter
    (fun shape ->
      let c =
        {
          seed = 2024 + shape;
          noisy = true;
          profile = 1;
          banks_log = 1;
          mb = 1;
          rpt = 31;
          shape;
          fault = 0;
          masked = false;
          active_lanes = 128;
          gain_log = 1;
          swing = 7;
          x_prd = 2;
          des = 0;
          dest_xreg = 7;
          batch = 8;
        }
      in
      let launch = launch_of c (task_of c) in
      let chunked =
        (* explicit lets: argument positions would evaluate right to
           left, running the 3-chunk before the 5-chunk *)
        let m = machine_of c in
        let first = fok (Machine.execute_batch m launch ~batch:5) in
        let rest = fok (Machine.execute_batch m launch ~batch:3) in
        Array.append first rest
      in
      let whole = fok (Machine.execute_batch (machine_of c) launch ~batch:8) in
      let singles =
        match run_singles { c with batch = 8 } Machine.Reference with
        | Ok rs -> rs
        | Error e -> Alcotest.fail e
      in
      check bool
        (Printf.sprintf "shape %d: 5+3 chunks == one batch of 8" shape)
        true
        (same_results chunked whole);
      check bool
        (Printf.sprintf "shape %d: batch of 8 == 8 reference singles" shape)
        true
        (same_results whole singles))
    [ 0; 1; 2; 3 ]

(* Pool fan-out across the banks of the group is bit-identical. *)
let test_batched_pooled () =
  let c =
    {
      seed = 77;
      noisy = true;
      profile = 1;
      banks_log = 2;
      mb = 2;
      rpt = 63;
      shape = 2;
      fault = 0;
      masked = false;
      active_lanes = 128;
      gain_log = 0;
      swing = 7;
      x_prd = 1;
      des = 0;
      dest_xreg = 7;
      batch = 4;
    }
  in
  let launch = launch_of c (task_of c) in
  let seq = fok (Machine.execute_batch (machine_of c) launch ~batch:4) in
  Pool.with_pool ~jobs:3 (fun pool ->
      let par =
        fok (Machine.execute_batch ~pool (machine_of c) launch ~batch:4)
      in
      check bool "pooled batch == sequential batch" true
        (same_results seq par))

(* ------------------------------------------------------------------ *)
(* The zero-allocation serving path                                     *)
(* ------------------------------------------------------------------ *)

(* The zero-allocation and pipelined-trace tests exercise the in-buffer
   plane loop, which only the fused datapath runs, so they pin it
   instead of inheriting PROMISE_KERNEL_MODE. *)

let serving_case shape =
  {
    seed = 501 + shape;
    noisy = true;
    profile = 1;
    banks_log = 0;
    mb = 0;
    rpt = 127;
    shape;
    fault = 0;
    masked = false;
    active_lanes = 128;
    gain_log = 0;
    swing = 7;
    x_prd = 1;
    des = 0;
    dest_xreg = 7;
    batch = 8;
  }

(* out.{d*epd + g} is bitwise the emission stream of the d-th
   sequential execute (emitted for accumulate/threshold, the extremum
   value for max/min). *)
let test_into_bitwise () =
  List.iter
    (fun shape ->
      let c = serving_case shape in
      let task = task_of c in
      let launch = launch_of c task in
      let epd =
        Machine.emissions_per_decision task ~th:launch.Machine.th
      in
      let out = ba_create (c.batch * epd) in
      let n =
        fok
          (Machine.execute_batch_into ~kernel_mode:Machine.Fused (machine_of c)
             launch ~batch:c.batch
             ~out)
      in
      check int (Printf.sprintf "shape %d: returned epd" shape) epd n;
      let m = machine_of c in
      for d = 0 to c.batch - 1 do
        let r = Machine.For_tests.execute_exn ~kernel_mode:Machine.Fused m launch in
        let want =
          match r.Machine.argext with
          | Some (_, v) -> [ v ]
          | None -> r.Machine.emitted @ r.Machine.acc_out
        in
        check int
          (Printf.sprintf "shape %d decision %d: emission count" shape d)
          epd (List.length want);
        List.iteri
          (fun g v ->
            if
              Int64.bits_of_float out.{(d * epd) + g}
              <> Int64.bits_of_float v
            then
              Alcotest.failf "shape %d decision %d emission %d: %h <> %h"
                shape d g
                out.{(d * epd) + g}
                v)
          want
      done)
    [ 0; 1; 3 ]

let test_into_zero_alloc () =
  let c = serving_case 0 in
  let task = task_of c in
  let launch = launch_of c task in
  let m = machine_of c in
  let batch = 512 in
  let epd = Machine.emissions_per_decision task ~th:launch.Machine.th in
  let out = ba_create (batch * epd) in
  (* warmup compiles the kernels and grows the noise plane / tables *)
  ignore
    (fok
       (Machine.execute_batch_into ~kernel_mode:Machine.Fused m launch ~batch
          ~out));
  let minor0 = Gc.minor_words () in
  ignore
    (fok
       (Machine.execute_batch_into ~kernel_mode:Machine.Fused m launch ~batch
          ~out));
  let delta = Gc.minor_words () -. minor0 in
  let per_task = delta /. float_of_int batch in
  (* the per-decision loop is allocation-free; the per-call fixed cost
     (one trace record, a few boxes) must amortize below 1 word/task *)
  if per_task >= 1.0 then
    Alcotest.failf
      "batched serving allocated %.2f minor words/task (%.0f words for %d \
       decisions)"
      per_task delta batch

(* An [out] one slot short is a typed [Invalid_operand] in both kernel
   modes, checked before the call touches anything: nothing is traced,
   and the next batch equals a fresh twin machine's. *)
let test_into_short_out () =
  let c = serving_case 0 in
  let task = task_of c in
  let launch = launch_of c task in
  let epd = Machine.emissions_per_decision task ~th:launch.Machine.th in
  List.iter
    (fun (name, kernel_mode) ->
      let into m out =
        Machine.execute_batch_into ~kernel_mode m launch ~batch:c.batch ~out
      in
      let m = machine_of c in
      (match into m (ba_create ((c.batch * epd) - 1)) with
      | Error e ->
          check bool (name ^ ": typed Invalid_operand") true
            (e.E.code = E.Invalid_operand)
      | Ok _ -> Alcotest.failf "%s: a short out was accepted" name);
      check int (name ^ ": the rejected call traced nothing") 0
        (List.length (Machine.trace m).Arch.Trace.records);
      let got = ba_create (c.batch * epd) in
      let want = ba_create (c.batch * epd) in
      ignore (fok (into m got));
      ignore (fok (into (machine_of c) want));
      for i = 0 to (c.batch * epd) - 1 do
        if Int64.bits_of_float got.{i} <> Int64.bits_of_float want.{i} then
          Alcotest.failf "%s: emission %d: %h <> %h after the rejection" name i
            got.{i} want.{i}
      done)
    [ ("fused", Machine.Fused); ("reference", Machine.Reference) ]

(* The batch trace record carries the pipelined timing closed form. *)
let test_batch_trace_timing () =
  let c = serving_case 0 in
  let task = task_of c in
  let launch = launch_of c task in
  let m = machine_of c in
  let batch = 16 in
  let epd = Machine.emissions_per_decision task ~th:launch.Machine.th in
  let out = ba_create (batch * epd) in
  ignore
    (fok
       (Machine.execute_batch_into ~kernel_mode:Machine.Fused m launch ~batch
          ~out));
  match (Machine.trace m).Arch.Trace.records with
  | record :: _ ->
      let iters = Task.iterations task in
      let tp = Arch.Timing.task_tp task in
      check int "batched cycles = fill + (N-1) * iters * TP"
        (Arch.Timing.task_cycles task + ((batch - 1) * iters * tp))
        record.Arch.Trace.cycles;
      check int "iterations cover the whole batch" (batch * iters)
        record.Arch.Trace.iterations
  | [] -> Alcotest.fail "no trace record"

(* ------------------------------------------------------------------ *)
(* The machine.execute failpoint on the plane                           *)
(* ------------------------------------------------------------------ *)

(* [execute_batch] consults [machine.execute] before it touches any
   state, exactly like [execute]: with [fail_once] armed, a plane
   launch returns a typed [Fault] and appends nothing, and the retry
   equals a fresh machine's batch. *)
let test_batch_failpoint () =
  let c = serving_case 0 in
  let launch = launch_of c (task_of c) in
  let kernel_mode = Machine.Fused in
  let want =
    fok (Machine.execute_batch ~kernel_mode (machine_of c) launch ~batch:4)
  in
  let m = machine_of c in
  fok (Fp.configure ~seed:1 [ ("machine.execute", Fp.Fail_once) ]);
  Fun.protect ~finally:Fp.reset (fun () ->
      (match Machine.execute_batch ~kernel_mode m launch ~batch:4 with
      | Error e -> check bool "typed Fault" true (e.E.code = E.Fault)
      | Ok _ -> Alcotest.fail "the armed failpoint did not fire");
      check int "the faulted call traced nothing" 0
        (List.length (Machine.trace m).Arch.Trace.records);
      let got = fok (Machine.execute_batch ~kernel_mode m launch ~batch:4) in
      check bool "retry == a fresh machine's batch" true
        (same_results got want))

(* ------------------------------------------------------------------ *)
(* Discrete-event validation of the closed form                         *)
(* ------------------------------------------------------------------ *)

let test_scheduler_closed_form () =
  List.iter
    (fun shape ->
      List.iter
        (fun batch ->
          let c = { (serving_case shape) with rpt = 19 } in
          let task = task_of c in
          check bool
            (Printf.sprintf "shape %d batch %d matches closed form" shape
               batch)
            true
            (Scheduler.For_tests.batch_matches_closed_form task ~batch))
        [ 1; 2; 7; 16 ])
    [ 0; 1; 2; 3; 4; 5 ];
  (match Scheduler.For_tests.run_batch (task_of (serving_case 0)) ~batch:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Scheduler.For_tests.run_batch accepted batch 0");
  (* batch 1 degenerates to the single-decision schedule *)
  let task = task_of (serving_case 2) in
  check int "batch 1 == run"
    (Scheduler.run task).Scheduler.completion
    (Scheduler.For_tests.run_batch task ~batch:1).Scheduler.completion

(* ------------------------------------------------------------------ *)
(* Program- and runtime-level batching                                  *)
(* ------------------------------------------------------------------ *)

let test_run_program_batch () =
  let c = { (serving_case 0) with banks_log = 1; mb = 0 } in
  let program =
    Program.make ~name:"two"
      [ task_of c; task_of { c with shape = 2; rpt = 15 } ]
  in
  let batch = 5 in
  let batched =
    fok (Machine.run_program_batch (machine_of c) program ~batch)
  in
  let m = machine_of c in
  let replayed =
    Array.init batch (fun _ -> fok (Machine.run_program m program))
  in
  check int "one result list per decision" batch (Array.length batched);
  Array.iteri
    (fun d rs ->
      check bool
        (Printf.sprintf "decision %d: multi-task program identical" d)
        true
        (List.for_all2 same_result rs replayed.(d)))
    batched

let bt_kernel =
  Dsl.kernel ~name:"bt"
    ~decls:
      [
        Dsl.matrix "W" ~rows:8 ~cols:64;
        Dsl.vector "x" ~len:64;
        Dsl.out_vector "out" ~len:8;
      ]
    [ Dsl.for_store ~iterations:8 ~out:"out" (Dsl.dot "W" "x") ]

let bt_bindings () =
  let rng = Rng.create 8101 in
  let w =
    Array.init 8 (fun _ ->
        Array.init 64 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init 64 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let b = Rt.bindings () in
  Rt.bind_matrix b "W" w;
  Rt.bind_vector b "x" x;
  b

(* Two chained layers on one bank: layer 2 stages W1 into bank 0 over
   layer 1's rows. *)
let bt2_kernel =
  Dsl.kernel ~name:"bt2"
    ~decls:
      [
        Dsl.matrix "W0" ~rows:8 ~cols:64;
        Dsl.vector "x" ~len:64;
        Dsl.out_vector "h" ~len:8;
        Dsl.matrix "W1" ~rows:4 ~cols:8;
        Dsl.out_vector "y" ~len:4;
      ]
    [
      Dsl.for_store ~iterations:8 ~out:"h" (Dsl.dot "W0" "x");
      Dsl.for_store ~iterations:4 ~out:"y" (Dsl.dot "W1" "h");
    ]

(* [bt2] with a first layer four banks wide: layer 2 stages W1 over
   bank 0 alone. *)
let wide2_kernel =
  Dsl.kernel ~name:"wide2"
    ~decls:
      [
        Dsl.matrix "W0" ~rows:8 ~cols:512;
        Dsl.vector "x" ~len:512;
        Dsl.out_vector "h" ~len:8;
        Dsl.matrix "W1" ~rows:4 ~cols:8;
        Dsl.out_vector "y" ~len:4;
      ]
    [
      Dsl.for_store ~iterations:8 ~out:"h" (Dsl.dot "W0" "x");
      Dsl.for_store ~iterations:4 ~out:"y" (Dsl.dot "W1" "h");
    ]

let bt_machine g =
  Machine.create
    {
      Machine.banks = Rt.required_banks g;
      profile = Arch.Bank.Silicon;
      noise_seed = Some 42;
    }

let outputs_of r =
  List.map
    (fun (id, (o : Rt.task_output)) -> (id, o.Rt.values, o.Rt.decision))
    r.Rt.outputs

let test_runtime_batch () =
  let g = fok (P.compile bt_kernel) in
  let batched =
    fok (Rt.run_batch ~machine:(bt_machine g) g (bt_bindings ()) ~batch:3)
  in
  let m = bt_machine g in
  let sequential =
    Array.init 3 (fun _ -> fok (Rt.run ~machine:m g (bt_bindings ())))
  in
  check int "one run_result per decision" 3 (Array.length batched);
  Array.iteri
    (fun d r ->
      check bool
        (Printf.sprintf "decision %d: runtime outputs bit-identical" d)
        true
        (outputs_of r = outputs_of sequential.(d)))
    batched;
  (* a chained two-layer DAG (layer 1's output is layer 2's X) is
     genuinely multi-node, so its decisions run one at a time *)
  let g2 = fok (P.compile bt2_kernel) in
  let b2_bindings () =
    let rng = Rng.create 8102 in
    let w0 =
      Array.init 8 (fun _ ->
          Array.init 64 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
    in
    let w1 =
      Array.init 4 (fun _ ->
          Array.init 8 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
    in
    let x = Array.init 64 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
    let b = Rt.bindings () in
    Rt.bind_matrix b "W0" w0;
    Rt.bind_matrix b "W1" w1;
    Rt.bind_vector b "x" x;
    b
  in
  let b2 = fok (Rt.run_batch ~machine:(bt_machine g2) g2 (b2_bindings ()) ~batch:2) in
  let m2 = bt_machine g2 in
  let s2 =
    Array.init 2 (fun _ -> fok (Rt.run ~machine:m2 g2 (b2_bindings ())))
  in
  Array.iteri
    (fun d r ->
      check bool
        (Printf.sprintf "multi-node decision %d identical" d)
        true
        (outputs_of r = outputs_of s2.(d)))
    b2

(* [runtime.run] is consulted once per decision before the first launch
   touches the machine — on the chunk-major path too: a single-node
   graph at batch 4 returns the injected fault with nothing traced or
   staged, and the retry equals a fresh machine's batch. *)
let test_runtime_batch_failpoint () =
  let g = fok (P.compile bt_kernel) in
  let want =
    fok (Rt.run_batch ~machine:(bt_machine g) g (bt_bindings ()) ~batch:4)
  in
  let m = bt_machine g in
  fok (Fp.configure ~seed:1 [ ("runtime.run", Fp.Fail_once) ]);
  Fun.protect ~finally:Fp.reset (fun () ->
      (match Rt.run_batch ~machine:m g (bt_bindings ()) ~batch:4 with
      | Error e -> check bool "typed Fault" true (e.E.code = E.Fault)
      | Ok _ -> Alcotest.fail "the armed failpoint did not fire");
      check int "the faulted call traced nothing" 0
        (List.length (Machine.trace m).Arch.Trace.records);
      check int "the faulted call staged nothing" 0
        (Arch.Bitcell_array.epoch (Arch.Bank.array (Machine.bank m 0)));
      let got = fok (Rt.run_batch ~machine:m g (bt_bindings ()) ~batch:4) in
      check bool "retry == a fresh machine's batch" true
        (Array.for_all2 (fun a b -> outputs_of a = outputs_of b) got want))

(* ------------------------------------------------------------------ *)
(* Sessions: W resident across queries                                  *)
(* ------------------------------------------------------------------ *)

(* The session shapes: a dot product (W scaled on its own); an L1
   argmin (W and X share one scale, so a large X requantizes W); 260
   rows in three chunks on one bank (each chunk stages over the last);
   the chained bt2 DAG; and wide2, whose layer 2 restages one bank of
   layer 1's four. *)
let session_kernels =
  [|
    bt_kernel;
    Dsl.kernel ~name:"sl1"
      ~decls:
        [
          Dsl.matrix "W" ~rows:6 ~cols:48;
          Dsl.vector "x" ~len:48;
          Dsl.out_vector "out" ~len:6;
        ]
      [
        Dsl.for_store ~iterations:6 ~out:"out" (Dsl.l1_distance "W" "x");
        Dsl.argmin "out";
      ];
    Dsl.kernel ~name:"schunks"
      ~decls:
        [
          Dsl.matrix "W" ~rows:260 ~cols:8;
          Dsl.vector "x" ~len:8;
          Dsl.out_vector "out" ~len:260;
        ]
      [ Dsl.for_store ~iterations:260 ~out:"out" (Dsl.dot "W" "x") ];
    bt2_kernel;
    wide2_kernel;
  |]

type session_op =
  | Query of { big : bool; batch : int; seed : int }
      (** [big]: [max |x|] exceeds [max |W|] *)
  | Bist
  | Set_faults of int
  | Write of { row : int; code : int }  (** a direct write into bank 0 *)

let print_session_op = function
  | Query { big; batch; seed } ->
      Printf.sprintf "Query{big=%b;batch=%d;seed=%d}" big batch seed
  | Bist -> "Bist"
  | Set_faults k -> Printf.sprintf "Set_faults %d" k
  | Write { row; code } -> Printf.sprintf "Write{row=%d;code=%d}" row code

let gen_session_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 5,
          map3
            (fun big batch seed -> Query { big; batch; seed })
            bool (int_range 1 3) (int_bound 10_000) );
        (1, return Bist);
        (1, map (fun k -> Set_faults k) (int_bound 3));
        ( 1,
          map2
            (fun row code -> Write { row; code })
            (int_bound 9) (int_range (-128) 127) );
      ]
  in
  triple
    (int_bound (Array.length session_kernels - 1))
    (int_bound 10_000)
    (list_size (int_range 2 8) op)

let print_session_case (k, seed, ops) =
  Printf.sprintf "kernel %d seed=%d ops=[%s]" k seed
    (String.concat "; " (List.map print_session_op ops))

(* Every W has [max |W|] = 0.5, so bt2's two layers quantize at one
   scale and only the node tells their staged rows apart. An ordinary X
   stays below 0.5; a big one reaches 0.95. *)
let session_w g seed =
  let rng = Rng.create seed in
  let b = Rt.bindings () in
  List.iter
    (fun (_, (at : At.t)) ->
      let w =
        Array.init at.At.loop_iterations (fun _ ->
            Array.init at.At.vector_len (fun _ ->
                Rng.uniform rng ~lo:(-0.5) ~hi:0.5))
      in
      w.(0).(0) <- 0.5;
      Rt.bind_matrix b at.At.w w)
    (Graph.tasks g);
  b

let session_x g ~big seed =
  let at = Graph.task g (List.hd (Graph.topological_order g)) in
  let rng = Rng.create seed in
  let bound = if big then 0.95 else 0.4 in
  let x =
    Array.init at.At.vector_len (fun _ -> Rng.uniform rng ~lo:(-.bound) ~hi:bound)
  in
  if big then x.(seed mod at.At.vector_len) <- 0.95;
  x

let perturb m = function
  | Query _ -> ()
  | Bist -> ignore (fok (Arch.Selftest.run ~trials:4 m))
  | Set_faults k ->
      let f =
        match k with
        | 0 -> Faults.none
        | 1 -> fok (Faults.with_stuck_lane Faults.none ~lane:3 ~code:64)
        | 2 -> Faults.with_adc_offset Faults.none 0.05
        | _ -> fok (Faults.with_xreg_flips Faults.none ~seed:7 ~rate:0.05)
      in
      Arch.Bank.set_faults (Machine.bank m 0) f
  | Write { row; code } ->
      Arch.Bitcell_array.write
        (Arch.Bank.array (Machine.bank m 0))
        ~word_row:row (Array.make 128 code)

let bits_of r =
  List.map
    (fun (id, (o : Rt.task_output)) ->
      ( id,
        Array.map Int64.bits_of_float o.Rt.values,
        Option.map (fun (i, v) -> (i, Int64.bits_of_float v)) o.Rt.decision ))
    r.Rt.outputs

(* N queries through one session == the same N queries each through
   [Runtime.run] on a twin machine, with BIST runs, fault changes,
   direct writes over W's rows and X beyond [max |W|] interleaved. A
   session that kept a stale W resident would diverge here. *)
let qcheck_session_eq_runs =
  QCheck.Test.make ~name:"session queries == a fresh Runtime.run per query"
    ~count:40
    (QCheck.make ~print:print_session_case gen_session_case)
    (fun (k, seed, ops) ->
      let g = fok (P.compile session_kernels.(k)) in
      let m = bt_machine g and twin = bt_machine g in
      let s = fok (Rt.session m g (session_w g seed)) in
      List.for_all
        (fun op ->
          perturb m op;
          perturb twin op;
          match op with
          | Query { big; batch; seed = xs } ->
              let x = session_x g ~big xs in
              let q = Rt.bindings () in
              Rt.bind_vector q "x" x;
              let got = fok (Rt.query s q ~batch) in
              let full = session_w g seed in
              Rt.bind_vector full "x" x;
              let want =
                Array.init batch (fun _ -> fok (Rt.run ~machine:twin g full))
              in
              Array.for_all2 (fun a b -> bits_of a = bits_of b) got want
          | Bist | Set_faults _ | Write _ -> true)
        ops)

(* Within one query, a node restages over a shared bank even when both
   nodes quantize at one scale: a bt2 session equals its two layers run
   one after the other as single-node graphs on a twin machine, query
   after query. (The property above compares against [Runtime.run],
   which runs a session too, so it cannot see a mix-up between the
   nodes of one query.) *)
let test_session_chained_layers () =
  let layer name ~w ~x ~out ~rows ~cols =
    fok
      (P.compile
         (Dsl.kernel ~name
            ~decls:
              [
                Dsl.matrix w ~rows ~cols;
                Dsl.vector x ~len:cols;
                Dsl.out_vector out ~len:rows;
              ]
            [ Dsl.for_store ~iterations:rows ~out (Dsl.dot w x) ]))
  in
  let g = fok (P.compile bt2_kernel) in
  let g0 = layer "bt2a" ~w:"W0" ~x:"x" ~out:"h" ~rows:8 ~cols:64
  and g1 = layer "bt2b" ~w:"W1" ~x:"h" ~out:"y" ~rows:4 ~cols:8 in
  let m = bt_machine g and twin = bt_machine g in
  let s = fok (Rt.session m g (session_w g 5)) in
  let values (o : Rt.task_output) = Array.map Int64.bits_of_float o.Rt.values in
  for q = 1 to 3 do
    let x = session_x g ~big:false q in
    let b = Rt.bindings () in
    Rt.bind_vector b "x" x;
    let got = List.map (fun (_, o) -> values o) (fok (Rt.query s b ~batch:1)).(0).Rt.outputs in
    let b0 = session_w g 5 in
    Rt.bind_vector b0 "x" x;
    let h = fok (Rt.final_output (fok (Rt.run ~machine:twin g0 b0))) in
    let b1 = session_w g 5 in
    Rt.bind_vector b1 "h" h.Rt.values;
    let y = fok (Rt.final_output (fok (Rt.run ~machine:twin g1 b1))) in
    check bool
      (Printf.sprintf "query %d == the layers run one by one" q)
      true
      (got = [ values h; values y ])
  done

(* Staging is per bank: wide2's layer 1 spans banks 0..3 and layer 2
   writes bank 0 alone, so after the first query every query restages
   bank 0 twice and leaves the write epochs of banks 1..3 where they
   are. *)
let test_session_restages_per_bank () =
  let g = fok (P.compile wide2_kernel) in
  let m = bt_machine g in
  check int "layer 1 spans four banks" 4 (Machine.n_banks m);
  let s = fok (Rt.session m g (session_w g 5)) in
  let epochs () =
    Array.init (Machine.n_banks m) (fun b ->
        Arch.Bitcell_array.epoch (Arch.Bank.array (Machine.bank m b)))
  in
  let query q =
    let b = Rt.bindings () in
    Rt.bind_vector b "x" (session_x g ~big:false q);
    ignore (fok (Rt.query s b ~batch:1));
    epochs ()
  in
  let first = query 1 in
  let last = ref first in
  for q = 2 to 4 do
    let e = query q in
    check bool (Printf.sprintf "query %d restaged bank 0" q) true
      (e.(0) > !last.(0));
    for b = 1 to 3 do
      check int (Printf.sprintf "query %d: bank %d epoch" q b) first.(b) e.(b)
    done;
    last := e
  done

(* ------------------------------------------------------------------ *)
(* Typed validation of --batch / PROMISE_BATCH                          *)
(* ------------------------------------------------------------------ *)

let with_env name value f =
  let old = try Some (Sys.getenv name) with Not_found -> None in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let test_batch_validation () =
  (* machine layer *)
  let c = serving_case 0 in
  let launch = launch_of c (task_of c) in
  (match Machine.execute_batch (machine_of c) launch ~batch:0 with
  | Error e -> check bool "machine rejects batch 0" true (e.E.code = E.Invalid_operand)
  | Ok _ -> Alcotest.fail "machine accepted batch 0");
  (* runtime layer *)
  let g = fok (P.compile bt_kernel) in
  (match Rt.run_batch g (bt_bindings ()) ~batch:(-2) with
  | Error e -> check bool "runtime rejects batch -2" true (e.E.code = E.Invalid_operand)
  | Ok _ -> Alcotest.fail "runtime accepted batch -2");
  (* pipeline layer *)
  (match Pipeline.run_batch bt_kernel (bt_bindings ()) ~batch:0 with
  | Error e -> check bool "pipeline rejects batch 0" true (e.E.code = E.Invalid_operand)
  | Ok _ -> Alcotest.fail "pipeline accepted batch 0");
  (* environment *)
  List.iter
    (fun bad ->
      with_env "PROMISE_BATCH" bad (fun () ->
          (match P.Validate.env_int ~name:"PROMISE_BATCH" ~min:1 ~max:4096 with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "PROMISE_BATCH=%s validated" bad);
          match P.check_env () with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "check_env accepted PROMISE_BATCH=%s" bad))
    [ "0"; "-3"; "abc"; "4097" ];
  with_env "PROMISE_BATCH" "16" (fun () ->
      check bool "PROMISE_BATCH=16 validates" true
        (P.Validate.env_int ~name:"PROMISE_BATCH" ~min:1 ~max:4096
        = Ok (Some 16));
      check bool "check_env accepts 16" true (P.check_env () = Ok ()));
  with_env "PROMISE_BATCH" "" (fun () ->
      check bool "unset reads as None" true
        (P.Validate.env_int ~name:"PROMISE_BATCH" ~min:1 ~max:4096 = Ok None))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "batch"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_batched_eq_singles;
          Alcotest.test_case "ragged chained batches are stream-continuous"
            `Quick test_ragged_chained;
          Alcotest.test_case "pooled batch is bit-identical" `Quick
            test_batched_pooled;
        ] );
      ( "serving",
        [
          Alcotest.test_case "execute_batch_into is bitwise the emission \
                              stream" `Quick test_into_bitwise;
          Alcotest.test_case "steady state allocates < 1 word/task" `Quick
            test_into_zero_alloc;
          Alcotest.test_case "batch trace carries pipelined timing" `Quick
            test_batch_trace_timing;
          Alcotest.test_case "a short out is rejected before any state \
                              changes" `Quick test_into_short_out;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "execute_batch faults before touching state"
            `Quick test_batch_failpoint;
          Alcotest.test_case "run_batch consults runtime.run per decision"
            `Quick test_runtime_batch_failpoint;
        ] );
      ( "timing",
        [
          Alcotest.test_case "discrete-event batch matches closed form"
            `Quick test_scheduler_closed_form;
        ] );
      ( "program+runtime",
        [
          Alcotest.test_case "run_program_batch == N run_program" `Quick
            test_run_program_batch;
          Alcotest.test_case "Runtime.run_batch == N Runtime.run" `Quick
            test_runtime_batch;
          QCheck_alcotest.to_alcotest qcheck_session_eq_runs;
          Alcotest.test_case "session restages chained layers" `Quick
            test_session_chained_layers;
          Alcotest.test_case "session restages per bank" `Quick
            test_session_restages_per_bank;
        ] );
      ( "validation",
        [
          Alcotest.test_case "--batch / PROMISE_BATCH typed errors" `Quick
            test_batch_validation;
        ] );
    ]
