(* Tests for the multicore execution engine: the Domain work pool
   (ordering, exceptions, nesting, lifecycle), the split_n RNG contract
   behind per-bank streams, bit-for-bit determinism of parallel
   execution at machine and runtime level (QCheck, including faulty
   machines), and the content-addressed compilation cache. *)

module P = Promise
module Pool = P.Pool
module Arch = P.Arch
module Faults = Arch.Faults
module Rng = P.Analog.Rng
module Dsl = P.Ir.Dsl
module Rt = P.Compiler.Runtime
module Cache = P.Compiler.Pipeline.Cache
module E = P.Error

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int

let fok = function Ok v -> v | Error e -> fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let arr = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) arr in
  check (Alcotest.array int) "sequential"
    expect
    (Pool.map_array Pool.sequential (fun i -> i * i) arr);
  Pool.with_pool ~jobs:4 (fun pool ->
      check bool "is_parallel" true (Pool.is_parallel pool);
      check int "jobs" 4 (Pool.jobs pool);
      check (Alcotest.array int) "parallel positional"
        expect
        (Pool.map_array pool (fun i -> i * i) arr);
      check (Alcotest.list int) "map_list"
        (Array.to_list expect)
        (Pool.map_list pool (fun i -> i * i) (Array.to_list arr));
      check (Alcotest.array int) "empty input" [||]
        (Pool.map_array pool (fun i -> i) [||]))

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Pool.map_array pool
           (fun i -> if i = 37 then failwith "boom" else i)
           (Array.init 64 (fun i -> i))
       with
      | _ -> fail "expected the item exception to propagate"
      | exception Pool.Item_failure { index; exn = Failure msg; _ } ->
          check Alcotest.int "failing item index" 37 index;
          check Alcotest.string "message" "boom" msg
      | exception e -> fail ("unexpected exception " ^ Printexc.to_string e));
      (* the pool survives a failed batch *)
      check (Alcotest.array int) "usable after failure"
        [| 0; 2; 4 |]
        (Pool.map_array pool (fun i -> 2 * i) [| 0; 1; 2 |]))

let test_pool_nested () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Pool.map_list pool
          (fun i ->
            (* a nested map must run inline, not deadlock on the workers *)
            List.fold_left ( + ) 0
              (Pool.map_list pool (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      check (Alcotest.list int) "nested results"
        (List.map (fun i -> (30 * i) + 6) [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        out)

let test_pool_lifecycle () =
  (match Pool.For_tests.create ~jobs:0 with
  | _ -> fail "jobs:0 must be rejected"
  | exception Invalid_argument _ -> ());
  (match Pool.For_tests.create ~jobs:65 with
  | _ -> fail "jobs:65 must be rejected"
  | exception Invalid_argument _ -> ());
  check bool "jobs:1 is sequential" false
    (Pool.is_parallel (Pool.For_tests.create ~jobs:1));
  check bool "default_jobs is positive" true (Pool.For_tests.default_jobs () >= 1);
  let pool = Pool.For_tests.create ~jobs:2 in
  Pool.For_tests.shutdown pool;
  Pool.For_tests.shutdown pool;
  (* idempotent *)
  match Pool.map_array pool (fun i -> i) [| 1 |] with
  | _ -> fail "map on a shut-down pool must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* RNG stream splitting                                                *)
(* ------------------------------------------------------------------ *)

let test_split_n () =
  let a = Rng.create 2024 and b = Rng.create 2024 in
  let streams = Rng.split_n a 8 in
  let manual = Array.init 8 (fun _ -> Rng.For_tests.split b) in
  Array.iteri
    (fun i s ->
      for draw = 0 to 15 do
        check Alcotest.int64
          (Printf.sprintf "stream %d draw %d" i draw)
          (Rng.For_tests.bits64 manual.(i)) (Rng.For_tests.bits64 s)
      done)
    streams;
  (* parents stay in lock-step too *)
  check Alcotest.int64 "parent advanced identically" (Rng.For_tests.bits64 b)
    (Rng.For_tests.bits64 a)

(* ------------------------------------------------------------------ *)
(* Machine-level determinism (QCheck)                                  *)
(* ------------------------------------------------------------------ *)

type case = {
  seed : int;
  banks : int;
  mb : int;  (** MULTI_BANK: group of [2^mb] banks *)
  rpt : int;
  shape : int;  (** which legal opcode composition *)
  faulty : bool;
}

let gen_case st =
  let open QCheck.Gen in
  let banks_log = int_range 1 3 st in
  {
    seed = int_bound 10_000 st;
    banks = 1 lsl banks_log;
    mb = int_range 1 banks_log st;
    rpt = int_bound 127 st;
    shape = int_bound 1 st;
    faulty = bool st;
  }

let print_case c =
  Printf.sprintf "{seed=%d; banks=%d; mb=%d; rpt=%d; shape=%d; faulty=%b}"
    c.seed c.banks c.mb c.rpt c.shape c.faulty

let task_of c =
  if c.shape = 0 then
    P.Isa.Task.make ~rpt_num:c.rpt ~multi_bank:c.mb
      ~class1:P.Isa.Opcode.C1_asubt
      ~class2:{ P.Isa.Opcode.asd = P.Isa.Opcode.Asd_absolute; avd = true }
      ~class3:P.Isa.Opcode.C3_adc ~class4:P.Isa.Opcode.C4_min ()
  else
    P.Isa.Task.make ~rpt_num:c.rpt ~multi_bank:c.mb
      ~class1:P.Isa.Opcode.C1_aread
      ~class2:{ P.Isa.Opcode.asd = P.Isa.Opcode.Asd_sign_mult; avd = true }
      ~class3:P.Isa.Opcode.C3_adc ~class4:P.Isa.Opcode.C4_accumulate ()

(* Two machines built from the same case are identical by construction:
   same seed, same split streams, same faults. *)
let machine_of c =
  let m =
    Arch.Machine.create
      {
        Arch.Machine.banks = c.banks;
        profile = Arch.Bank.Silicon;
        noise_seed = Some c.seed;
      }
  in
  if c.faulty then begin
    Arch.Bank.set_faults (Arch.Machine.bank m 0)
      (fok (Faults.with_stuck_lane Faults.none ~lane:7 ~code:42));
    Arch.Bank.set_faults (Arch.Machine.bank m 1)
      (fok (Faults.with_dead_lane Faults.none ~lane:3))
  end;
  m

let same_result (a : Arch.Machine.result) (b : Arch.Machine.result) =
  a.emitted = b.emitted && a.acc_out = b.acc_out && a.xreg_out = b.xreg_out
  && a.write_buffer = b.write_buffer
  && a.argext = b.argext && a.digital = b.digital

let qcheck_machine_determinism =
  QCheck.Test.make ~name:"execute jobs:1 == jobs:4 bit-for-bit" ~count:25
    (QCheck.make ~print:print_case gen_case) (fun c ->
      let launch = Arch.Machine.default_launch (task_of c) in
      let r_seq = Arch.Machine.For_tests.execute_exn (machine_of c) launch in
      Pool.with_pool ~jobs:4 (fun pool ->
          let r_par = Arch.Machine.For_tests.execute_exn ~pool (machine_of c) launch in
          same_result r_seq r_par))

(* ------------------------------------------------------------------ *)
(* Runtime-level determinism                                           *)
(* ------------------------------------------------------------------ *)

let tm_kernel =
  Dsl.kernel ~name:"tpar"
    ~decls:
      [
        Dsl.matrix "W" ~rows:32 ~cols:256;
        Dsl.vector "x" ~len:256;
        Dsl.out_vector "out" ~len:32;
      ]
    [
      Dsl.for_store ~iterations:32 ~out:"out" (Dsl.l1_distance "W" "x");
      Dsl.argmin "out";
    ]

let tm_bindings () =
  let rng = Rng.create 7001 in
  let w =
    Array.init 32 (fun _ ->
        Array.init 256 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9))
  in
  let x = Array.init 256 (fun _ -> Rng.uniform rng ~lo:(-0.9) ~hi:0.9) in
  let b = Rt.bindings () in
  Rt.bind_matrix b "W" w;
  Rt.bind_vector b "x" x;
  b

let test_runtime_determinism () =
  let g = fok (P.compile tm_kernel) in
  let run ?pool () =
    let r = fok (Rt.run ?pool g (tm_bindings ())) in
    fok (Rt.final_output r)
  in
  let o_seq = run () in
  Pool.with_pool ~jobs:4 (fun pool ->
      let o_par = run ~pool () in
      check bool "values bit-identical" true (o_seq.Rt.values = o_par.Rt.values);
      check bool "decision identical" true
        (o_seq.Rt.decision = o_par.Rt.decision))

(* ------------------------------------------------------------------ *)
(* Compiled-task cache                                                 *)
(* ------------------------------------------------------------------ *)

let test_cache_hit () =
  Cache.clear ();
  let s0 = Cache.For_tests.stats () in
  check int "clear zeroes entries" 0 s0.Cache.entries;
  let g1 = fok (P.compile tm_kernel) in
  let s1 = Cache.For_tests.stats () in
  check bool "first compile misses" true (s1.Cache.misses > s0.Cache.misses);
  check bool "first compile populates" true (s1.Cache.entries > 0);
  let g2 = fok (P.compile tm_kernel) in
  let s2 = Cache.For_tests.stats () in
  check bool "second compile hits" true (s2.Cache.hits > s1.Cache.hits);
  check int "no new entries on a hit" s1.Cache.entries s2.Cache.entries;
  check bool "cached graph structurally equal" true (g1 = g2);
  let p1 = fok (P.Compiler.Pipeline.codegen g1) in
  let p2 = fok (P.Compiler.Pipeline.codegen g2) in
  check bool "cached program structurally equal" true (p1 = p2)

let test_cache_recompile () =
  (* two compiles around a clear share no cache entry and must agree *)
  Cache.clear ();
  let g1 = fok (P.compile tm_kernel) in
  Cache.clear ();
  let g2 = fok (P.compile tm_kernel) in
  check int "second compile recomputes" 0 (Cache.For_tests.stats ()).Cache.hits;
  check bool "recomputation agrees" true (g1 = g2)

let test_cache_concurrent () =
  (* hammer one key from four domains: every result must be the same
     graph, and the cache must end up with a consistent entry count *)
  Cache.clear ();
  Pool.with_pool ~jobs:4 (fun pool ->
      let graphs =
        Pool.map_list pool
          (fun _ -> fok (P.compile tm_kernel))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      match graphs with
      | first :: rest ->
          List.iteri
            (fun i g ->
              check bool
                (Printf.sprintf "concurrent compile %d agrees" (i + 1))
                true (g = first))
            rest
      | [] -> fail "no results")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering is positional" `Quick test_pool_ordering;
          Alcotest.test_case "item exceptions propagate" `Quick
            test_pool_exception;
          Alcotest.test_case "nested maps run inline" `Quick test_pool_nested;
          Alcotest.test_case "lifecycle and validation" `Quick
            test_pool_lifecycle;
        ] );
      ( "rng",
        [ Alcotest.test_case "split_n == n sequential splits" `Quick
            test_split_n ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest qcheck_machine_determinism;
          Alcotest.test_case "runtime output identical under a pool" `Quick
            test_runtime_determinism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit returns the structurally equal graph" `Quick
            test_cache_hit;
          Alcotest.test_case "recompile after clear agrees" `Quick
            test_cache_recompile;
          Alcotest.test_case "concurrent compilations agree" `Quick
            test_cache_concurrent;
        ] );
    ]
