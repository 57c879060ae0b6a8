(* Differential tests for the compiled kernels: the fused datapath must
   be bit-identical to the scalar reference path on every task shape,
   profile, fault set, destination, lane mask and launch shape
   (QCheck), launches that differ only in ADC gain must share one
   kernel, the batch-1 sample plane must not allocate on the minor heap
   in the steady state, the 8-bit quantizer must be the one shared
   function everywhere, and the degraded-ADC stall memo must actually
   memoize. *)

module P = Promise
module Arch = P.Arch
module Machine = Arch.Machine
module Kernel = Arch.Kernel
module Faults = Arch.Faults
module Rng = P.Analog.Rng
module Task = P.Isa.Task
module Op = P.Isa.Opcode
module Op_param = P.Isa.Op_param
module E = P.Error

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let fok = function Ok v -> v | Error e -> Alcotest.fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* QCheck: fused == reference, bit for bit                             *)
(* ------------------------------------------------------------------ *)

type case = {
  seed : int;
  noisy : bool;
  profile : int;  (** 0 Ideal, 1 Silicon, 2 Custom lut, 3 Custom leakage *)
  banks_log : int;  (** machine has [2^banks_log] banks *)
  mb : int;  (** MULTI_BANK; [mb <= banks_log] *)
  rpt : int;
  shape : int;  (** task shape, includes a non-fusable one *)
  fault : int;  (** 0..5 *)
  masked : bool;
  active_lanes : int;
  gain_log : int;  (** ADC gain [2^gain_log] *)
  swing : int;
  x_prd : int;
  des : int;  (** 0 output buffer, 1 acc, 2 X-REG, 3 write buffer *)
  dest_xreg : int;
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
  }

let print_case c =
  Printf.sprintf
    "{seed=%d; noisy=%b; profile=%d; banks=%d; mb=%d; rpt=%d; shape=%d; \
     fault=%d; masked=%b; lanes=%d; gain=%d; swing=%d; x_prd=%d; des=%d; \
     dest_xreg=%d}"
    c.seed c.noisy c.profile (1 lsl c.banks_log) c.mb c.rpt c.shape c.fault
    c.masked c.active_lanes (1 lsl c.gain_log) c.swing c.x_prd c.des
    c.dest_xreg

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
      (* aVD off: not the fused shape — no kernel, the scalar loop *)
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

(* Each mode executes the launch twice on its own machine: the second
   run replays from advanced RNG streams and, in fused mode, through
   the now-populated kernel cache. *)
let run_twice c mode =
  let task = task_of c in
  let m = machine_of c in
  let launch = launch_of c task in
  let lane_mask = lane_mask_of c in
  let exec () =
    match Machine.execute ?lane_mask ~kernel_mode:mode m launch with
    | Ok r -> Ok r
    | Error e -> Error (E.to_string e)
  in
  (exec (), exec ())

let qcheck_fused_eq_reference =
  QCheck.Test.make ~name:"fused == reference bit-for-bit" ~count:60
    (QCheck.make ~print:print_case gen_case) (fun c ->
      let r1, r2 = run_twice c Machine.Reference in
      let f1, f2 = run_twice c Machine.Fused in
      match (r1, f1, r2, f2) with
      | Ok r1, Ok f1, Ok r2, Ok f2 -> same_result r1 f1 && same_result r2 f2
      | Error e1, Error e2, _, _ -> e1 = e2
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Kernel-cache invalidation                                           *)
(* ------------------------------------------------------------------ *)

let base_case =
  {
    seed = 5;
    noisy = true;
    profile = 1;
    banks_log = 1;
    mb = 1;
    rpt = 15;
    shape = 0;
    fault = 0;
    masked = false;
    active_lanes = 128;
    gain_log = 0;
    swing = 7;
    x_prd = 1;
    des = 0;
    dest_xreg = 7;
  }

(* [Bank.set_faults] between two executes must recompile the kernel:
   run the same schedule on a reference machine and a fused machine,
   changing faults mid-stream, and require identical outputs. *)
let test_cache_invalidation () =
  let c = base_case in
  let task = task_of c in
  let launch = launch_of c task in
  let newly_stuck = fok (Faults.with_stuck_lane Faults.none ~lane:11 ~code:(-7)) in
  let run mode =
    let m = machine_of c in
    let a = Machine.execute_exn ~kernel_mode:mode m launch in
    Arch.Bank.set_faults (Machine.bank m 0) newly_stuck;
    let b = Machine.execute_exn ~kernel_mode:mode m launch in
    (* same faults re-applied: equal set, fresh transient stream *)
    Arch.Bank.set_faults (Machine.bank m 0) newly_stuck;
    let c' = Machine.execute_exn ~kernel_mode:mode m launch in
    (a, b, c')
  in
  let ra, rb, rc = run Machine.Reference in
  let fa, fb, fc = run Machine.Fused in
  check bool "before fault change" true (same_result ra fa);
  check bool "after fault change" true (same_result rb fb);
  check bool "after fault re-set" true (same_result rc fc)

(* A launch that stages X-REG emits into a row its own task reads sees
   its earlier emits in later iterations; the fused datapath must then
   match the scalar path, which interleaves sampling and staging. A
   128-iteration sign-mult task with X_PRD = 3 reads rows 0..3 and
   emits every iteration, so rows 0..3 are hazards and 4..7 are not. *)
let test_xreg_self_feed () =
  for dest_xreg = 0 to Arch.Params.xreg_depth - 1 do
    let c =
      {
        base_case with
        banks_log = 0;
        mb = 0;
        rpt = 127;
        x_prd = 3;
        des = 2;
        dest_xreg;
      }
    in
    let r1, r2 = run_twice c Machine.Reference in
    let f1, f2 = run_twice c Machine.Fused in
    match (r1, f1, r2, f2) with
    | Ok r1, Ok f1, Ok r2, Ok f2 ->
        check bool
          (Printf.sprintf "dest_xreg %d: fused == reference" dest_xreg)
          true
          (same_result r1 f1 && same_result r2 f2)
    | _ -> Alcotest.failf "dest_xreg %d: launch failed" dest_xreg
  done

(* The ADC gain only enters the ADC step, so it is no part of a
   kernel's identity: launches that differ only in gain reuse the
   bank's kernel, and each is bitwise what the scalar path computes. *)
let test_gain_reuses_kernel () =
  let c = base_case in
  let task = task_of c in
  let gains = [ 1.0; 4.0; 2.0 ] in
  let run mode =
    let m = machine_of c in
    List.map
      (fun adc_gain ->
        let r =
          Machine.execute_exn ~kernel_mode:mode m
            { (launch_of c task) with Machine.adc_gain }
        in
        (r, Machine.For_tests.cached_kernel m ~bank:0))
      gains
  in
  let refs = run Machine.Reference in
  let fused = run Machine.Fused in
  List.iteri
    (fun i ((r, _), (f, _)) ->
      check bool
        (Printf.sprintf "gain %g: fused == reference" (List.nth gains i))
        true (same_result r f))
    (List.combine refs fused);
  match List.map snd fused with
  | Some k :: rest ->
      List.iter
        (fun k' ->
          check bool "one kernel serves every gain" true
            (match k' with Some k' -> k' == k | None -> false))
        rest
  | _ -> Alcotest.fail "the fused launch cached no kernel"

(* ------------------------------------------------------------------ *)
(* Zero-allocation steady state                                        *)
(* ------------------------------------------------------------------ *)

let test_zero_alloc () =
  let m =
    Machine.create
      { Machine.banks = 1; profile = Arch.Bank.Silicon; noise_seed = Some 9 }
  in
  let bank = Machine.bank m 0 in
  let rng = Rng.create 31 in
  for row = 0 to 63 do
    Arch.Bitcell_array.write (Arch.Bank.array bank) ~word_row:row
      (Array.init Arch.Params.lanes (fun _ -> Rng.int rng 255 - 128))
  done;
  for i = 0 to Arch.Params.xreg_depth - 1 do
    Arch.Xreg.load (Arch.Bank.xreg bank) ~index:i
      (Array.init Arch.Params.lanes (fun _ -> Rng.int rng 255 - 128))
  done;
  let task =
    Task.make ~rpt_num:127 ~class1:Op.C1_aread
      ~class2:{ Op.asd = Op.Asd_sign_mult; avd = true }
      ~class3:Op.C3_adc ~class4:Op.C4_accumulate ()
  in
  let k =
    match Kernel.specialize bank ~task ~active_lanes:128 with
    | Some k -> k
    | None -> Alcotest.fail "the fused shape got no kernel"
  in
  let dst =
    Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout
      (Task.iterations task)
  in
  (* warmup grows this domain's tables and noise tile *)
  for _ = 1 to 2 do
    Kernel.sample_batch_into k ~adc_gain:1.0 ~batch:1 ~dst ~off:0
  done;
  let decisions = 100 in
  let minor0 = Gc.minor_words () in
  for _ = 1 to decisions do
    Kernel.sample_batch_into k ~adc_gain:1.0 ~batch:1 ~dst ~off:0
  done;
  let delta = Gc.minor_words () -. minor0 in
  (* noise enabled: each decision draws its whole 128 × 128 plane
     through [gaussian_fill_ba]; a tiny slack tolerates
     instrumentation, not per-iteration boxing *)
  if delta > 100.0 then
    Alcotest.failf
      "batch-1 steady state allocated %.0f minor words in %d decisions" delta
      decisions

(* ------------------------------------------------------------------ *)
(* One shared 8-bit quantizer                                          *)
(* ------------------------------------------------------------------ *)

let test_quantizer_shared () =
  check int "bits" 8 P.Ml.Fixed_point.bits;
  for i = -160 to 160 do
    let v = float_of_int i /. 100.0 in
    check int
      (Printf.sprintf "quantize %.2f" v)
      (P.Quant.quantize8 v)
      (P.Ml.Fixed_point.quantize v)
  done;
  for code = -128 to 127 do
    check (Alcotest.float 0.0)
      (Printf.sprintf "dequantize %d" code)
      (P.Quant.dequantize8 code)
      (P.Ml.Fixed_point.dequantize code);
    (* write→aread round trip through the bit-cell array agrees too *)
    check int
      (Printf.sprintf "round trip %d" code)
      code
      (P.Quant.quantize8 (P.Quant.dequantize8 code))
  done

(* ------------------------------------------------------------------ *)
(* The degraded-ADC stall memo                                         *)
(* ------------------------------------------------------------------ *)

let test_stall_memo () =
  Machine.For_tests.reset_stall_memo ();
  let m =
    Machine.create
      { Machine.banks = 1; profile = Arch.Bank.Ideal; noise_seed = None }
  in
  Arch.Bank.set_faults (Machine.bank m 0)
    (fok (Faults.with_dead_adc_units Faults.none 6));
  let task =
    Task.make ~rpt_num:63 ~class1:Op.C1_aread
      ~class2:{ Op.asd = Op.Asd_absolute; avd = true }
      ~class3:Op.C3_adc ~class4:Op.C4_accumulate ()
  in
  let launch = Machine.default_launch task in
  let r1 = Machine.execute_exn m launch in
  let hits1, misses1 = Machine.For_tests.stall_memo_stats () in
  check int "first run misses once" 1 misses1;
  check int "first run has no hit" 0 hits1;
  let r2 = Machine.execute_exn m launch in
  let hits2, misses2 = Machine.For_tests.stall_memo_stats () in
  check int "replay hits the memo" 1 hits2;
  check int "replay adds no miss" 1 misses2;
  check int "stall accounting identical" r1.Machine.record.Arch.Trace.stall_cycles
    r2.Machine.record.Arch.Trace.stall_cycles;
  check bool "stalls actually happen" true
    (r1.Machine.record.Arch.Trace.stall_cycles > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kernels"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest qcheck_fused_eq_reference;
          Alcotest.test_case "set_faults invalidates the kernel cache" `Quick
            test_cache_invalidation;
          Alcotest.test_case "launches differing only in gain share a kernel"
            `Quick test_gain_reuses_kernel;
          Alcotest.test_case "X-REG emits into a row the task reads" `Quick
            test_xreg_self_feed;
        ] );
      ( "allocation",
        [ Alcotest.test_case "fused steady state is zero-alloc" `Quick
            test_zero_alloc ] );
      ( "quantizer",
        [ Alcotest.test_case "one quantizer everywhere" `Quick
            test_quantizer_shared ] );
      ( "stall memo",
        [ Alcotest.test_case "scheduler pair memoized" `Quick test_stall_memo ]
      );
    ]
