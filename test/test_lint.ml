(* Lint tests: the Diag core, the three analysis passes (Task-ISA
   verifier, SSA validator, interval overflow analysis), the report
   driver, and the clean-lint property over random DSL kernels.

   Mutation style: each seeded defect must be caught with its exact
   documented diagnostic code (ARCHITECTURE §10). *)

open Promise.Ir
open Promise.Isa
module P = Promise
module Diag = P.Diag
module Ssa_check = P.Analysis.Ssa_check
module Isa_check = P.Analysis.Isa_check
module Interval = P.Analysis.Interval
module Dataflow = P.Analysis.Dataflow
module Liveness = P.Analysis.Liveness
module Regpressure = P.Analysis.Regpressure
module Timing_check = P.Analysis.Timing_check
module Lint = P.Analysis.Lint
module B = P.Benchmarks
module Precision = P.Compiler.Precision
module Runtime = P.Compiler.Runtime
module Machine = P.Arch.Machine

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let codes ds = List.map Diag.code ds

let has_code c ds =
  if not (List.mem c (codes ds)) then
    fail
      (Printf.sprintf "expected %s, got [%s]" c
         (String.concat "; " (List.map Diag.to_string ds)))

let only_code c ds =
  has_code c ds;
  check int (c ^ " is the only diagnostic") 1 (List.length ds)

(* ------------------------------------------------------------------ *)
(* Diag core                                                           *)
(* ------------------------------------------------------------------ *)

let test_diag_render () =
  let d = Diag.errorf ~code:"P-ISA-003" ~span:(Diag.Task 2) "dropped" in
  check str "render" "[P-ISA-003] dropped" (Diag.render d);
  check str "to_string" "error[P-ISA-003] task 2: dropped" (Diag.to_string d);
  check bool "is_error" true (Diag.is_error d);
  let w = Diag.warningf ~code:"P-OVF-002" "w" in
  check int "count_errors" 1 (Diag.count_errors [ w; d ]);
  check int "count_warnings" 1 (Diag.count_warnings [ w; d ])

let test_diag_sort () =
  let at span code = Diag.errorf ~code ~span "x" in
  let sorted =
    Diag.sort
      [ at (Diag.Task 3) "P-ISA-001"; at (Diag.Task 1) "P-ISA-006";
        at (Diag.Task 1) "P-ISA-002" ]
  in
  check bool "span order, then code" true
    (codes sorted = [ "P-ISA-002"; "P-ISA-006"; "P-ISA-001" ])

let test_diag_to_error () =
  let d = Diag.errorf ~code:"P-TSK-001" "swing out of range" in
  let e = Diag.to_error ~layer:"isa" d in
  let s = P.Error.to_string e in
  check bool "code survives in the typed error" true
    (contains ~sub:"P-TSK-001" s)

let test_diag_json () =
  let d = Diag.errorf ~code:"P-SSA-006" ~span:(Diag.Instr { block = "b"; vreg = 3 }) {|say "hi"|} in
  let j = Diag.to_json d in
  check bool "code in json" true (contains ~sub:{|"code":"P-SSA-006"|} j);
  check bool "message escaped" true (contains ~sub:{|say \"hi\"|} j)

(* ------------------------------------------------------------------ *)
(* Task-level mutations: assembler + per-Task validation codes         *)
(* ------------------------------------------------------------------ *)

let parse_task_code line =
  match Asm.parse_task line with
  | Ok _ -> fail ("expected a diagnostic for: " ^ line)
  | Error d -> Diag.code d

let test_task_mutations () =
  List.iter
    (fun (line, code) -> check str line code (parse_task_code line))
    [
      ("task c1=bogus", "P-ASM-001");
      ("task c1=aREAD c2=square.avd avd c3=ADC", "P-ASM-001");
      ("task c1=aREAD c2=square.avd c3=ADC c4=accumulate swing=9", "P-TSK-001");
      ("task c1=aREAD c2=square.avd c3=ADC c4=accumulate w=600", "P-TSK-001");
      ("task c1=read rpt=200", "P-TSK-002");
      ("task c1=read mb=5", "P-TSK-002");
      ("task c1=read c2=square c3=ADC c4=min", "P-TSK-003");
    ]

(* ------------------------------------------------------------------ *)
(* Whole-program ISA mutations                                         *)
(* ------------------------------------------------------------------ *)

let program_of_lines lines =
  match Asm.parse_program (String.concat "\n" lines) with
  | Ok tasks -> tasks
  | Error msg -> fail msg

let isa_diags lines = Isa_check.check_program (program_of_lines lines)

let test_isa_clean () =
  check int "well-formed single task is clean" 0
    (List.length
       (isa_diags [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate" ]))

let test_isa_mutations () =
  List.iter
    (fun (lines, code) -> only_code code (isa_diags lines))
    [
      (* dead X-REG store: nothing after the write reads X *)
      ( [ "task c1=aREAD c2=square.avd c3=ADC c4=sigmoid des=xreg" ],
        "P-ISA-001" );
      (* W window walks off the 128 word rows of a bank *)
      ( [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate w=100 rpt=59" ],
        "P-ISA-002" );
      (* analog aggregate dropped at the Task boundary (no ADC) *)
      ([ "task c1=aREAD c2=square c4=accumulate" ], "P-ISA-003");
      (* 3 iterations do not divide into ACC_NUM+1 = 2 groups *)
      ( [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate acc=1 rpt=2" ],
        "P-ISA-004" );
      (* X circulates out of phase with the accumulation group *)
      ( [ "task c1=aADD c2=none.avd c3=ADC c4=accumulate acc=1 rpt=3 xprd=0" ],
        "P-ISA-005" );
      (* accumulator chain never drains *)
      ( [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=acc" ],
        "P-ISA-006" );
      (* chain members disagree on SWING *)
      ( [
          "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=acc swing=7";
          "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=acc swing=3";
          "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=out";
        ],
        "P-ISA-006" );
    ]

let test_isa_xreg_consumed_is_clean () =
  (* the same X-REG store is fine when a later Task reads X *)
  check int "consumed store is clean" 0
    (List.length
       (isa_diags
          [
            "task c1=aREAD c2=square.avd c3=ADC c4=sigmoid des=xreg";
            "task c1=aADD c2=none.avd c3=ADC c4=accumulate acc=0 xprd=0";
          ]))

(* ------------------------------------------------------------------ *)
(* SSA validator mutations                                             *)
(* ------------------------------------------------------------------ *)

let blk ~label ~first instrs terminator =
  { Ssa.label; first_index = first; instrs = Array.of_list instrs; terminator }

let func ?(params = [ ("x", Ssa.Vector 4) ]) blocks =
  { Ssa.name = "t"; params; blocks }

let test_ssa_mutations () =
  let cases =
    [
      ( "duplicate label",
        func
          [
            blk ~label:"entry" ~first:0 [] (Ssa.Br "entry");
            blk ~label:"entry" ~first:0 [] (Ssa.Ret None);
          ],
        "P-SSA-001" );
      ( "undefined vreg",
        func
          [ blk ~label:"entry" ~first:0
              [ Ssa.Load { ptr = Ssa.Vreg 99 } ]
              (Ssa.Ret None) ],
        "P-SSA-002" );
      ( "unknown argument",
        func
          [ blk ~label:"entry" ~first:0
              [ Ssa.Reduce { op = Ssa.Rsum; operand = Ssa.Arg "nope" } ]
              (Ssa.Ret None) ],
        "P-SSA-003" );
      ( "branch to unknown label",
        func [ blk ~label:"entry" ~first:0 [] (Ssa.Br "nowhere") ],
        "P-SSA-004" );
      ( "def does not dominate use",
        func
          [
            blk ~label:"entry" ~first:0 []
              (Ssa.Cond_br
                 { cond = Ssa.Const_int 1; if_true = "a"; if_false = "b" });
            blk ~label:"a" ~first:0
              [ Ssa.Reduce { op = Ssa.Rsum; operand = Ssa.Arg "x" } ]
              (Ssa.Br "b");
            blk ~label:"b" ~first:1
              [ Ssa.Scalar_unop { op = Ssa.Uneg; operand = Ssa.Vreg 0 } ]
              (Ssa.Ret None);
          ],
        "P-SSA-006" );
      ( "phi with a non-predecessor incoming label",
        func
          [
            blk ~label:"entry" ~first:0 [] (Ssa.Br "l");
            blk ~label:"l" ~first:0
              [ Ssa.Phi { incoming = [ ("nowhere", Ssa.Const_int 0) ] } ]
              (Ssa.Ret None);
          ],
        "P-SSA-007" );
      ( "vector length mismatch",
        func
          ~params:[ ("W", Ssa.Matrix (2, 8)); ("V", Ssa.Matrix (2, 4)) ]
          [
            blk ~label:"entry" ~first:0
              [
                Ssa.Getindex { matrix = Ssa.Arg "W"; index = Ssa.Const_int 0 };
                Ssa.Getindex { matrix = Ssa.Arg "V"; index = Ssa.Const_int 0 };
                Ssa.Vec_binop { op = Ssa.Vadd; lhs = Ssa.Vreg 0; rhs = Ssa.Vreg 1 };
              ]
              (Ssa.Ret None);
          ],
        "P-SSA-008" );
    ]
  in
  List.iter
    (fun (what, f, code) ->
      let ds = Ssa_check.validate f in
      if not (List.mem code (codes ds)) then
        fail
          (Printf.sprintf "%s: expected %s, got [%s]" what code
             (String.concat "; " (List.map Diag.to_string ds))))
    cases

let test_ssa_builder_missing_terminator () =
  (* satellite (f): the Builder rejects an unterminated block eagerly,
     tagged with the validator's code *)
  let b = Ssa.Builder.create ~name:"g" ~params:[] in
  Ssa.Builder.block b "entry";
  match Ssa.Builder.finish b with
  | exception Invalid_argument msg ->
      check bool "message carries P-SSA-005" true
        (contains ~sub:"P-SSA-005" msg)
  | _ -> fail "expected Invalid_argument"

let test_ssa_frontend_output_validates () =
  let k =
    Dsl.kernel ~name:"clean"
      ~decls:
        [ Dsl.matrix "W" ~rows:4 ~cols:16; Dsl.vector "x" ~len:16;
          Dsl.out_vector "out" ~len:4 ]
      [ Dsl.for_store ~iterations:4 ~out:"out" (Dsl.dot "W" "x") ]
  in
  check int "Dsl.lower output is SSA-clean" 0
    (List.length (Ssa_check.validate (Dsl.lower k)))

(* ------------------------------------------------------------------ *)
(* Interval overflow analysis                                          *)
(* ------------------------------------------------------------------ *)

let graph_of_tasks tasks =
  match Graph.of_tasks tasks with Ok g -> g | Error msg -> fail msg

let test_interval_saturation () =
  (* 2048-element rows need 2 segments on 8 banks, so the TH stage
     accumulates two ±1 samples: the non-terminal ReLU routes [0, 2]
     into an 8-bit X-REG and saturates; its consumer inherits the
     clamped value (warning). *)
  let layer1 =
    Abstract_task.make ~name:"layer1" ~w:"W1" ~x:"x" ~output:"h"
      ~vec_op:Abstract_task.Vo_mul_signed ~red_op:Abstract_task.Ro_sum
      ~digital_op:Abstract_task.Do_relu ~vector_len:2048 ~loop_iterations:4 ()
  in
  let layer2 =
    Abstract_task.make ~name:"layer2" ~w:"W2" ~x:"h" ~output:"y"
      ~vec_op:Abstract_task.Vo_mul_signed ~red_op:Abstract_task.Ro_sum
      ~digital_op:Abstract_task.Do_sigmoid ~vector_len:4 ~loop_iterations:2 ()
  in
  let reports, ds = Interval.analyze (graph_of_tasks [ layer1; layer2 ]) in
  has_code "P-OVF-001" ds;
  has_code "P-OVF-002" ds;
  check int "one error, one warning" 1 (Diag.count_errors ds);
  check int "one warning" 1 (Diag.count_warnings ds);
  let r1 = List.find (fun r -> r.Interval.name = "layer1") reports in
  check bool "layer1 saturates" true r1.Interval.saturates;
  check bool "layer1 interval clamped for consumers" true
    (r1.Interval.emitted.Interval.hi <= 1.0)

let test_interval_terminal_is_clean () =
  (* same geometry, but the ReLU is terminal (output buffer, not an
     8-bit register) — nothing to saturate *)
  let t =
    Abstract_task.make ~name:"only" ~w:"W" ~x:"x" ~output:"y"
      ~vec_op:Abstract_task.Vo_mul_signed ~red_op:Abstract_task.Ro_sum
      ~digital_op:Abstract_task.Do_relu ~vector_len:2048 ~loop_iterations:4 ()
  in
  let _, ds = Interval.analyze (graph_of_tasks [ t ]) in
  check int "terminal relu is clean" 0 (List.length ds)

let test_interval_check_stats () =
  only_code "P-OVF-003"
    (Interval.check_stats ~ea:1e9 ~ew:1e9 ~pm:1e-6);
  check int "feasible stats are clean" 0
    (List.length (Interval.check_stats ~ea:0.5 ~ew:0.5 ~pm:0.1))

let test_min_bits_matches_precision () =
  (* the analysis reimplements the compiler's Sakr solve (the
     dependency points compiler -> analysis); the two must agree *)
  List.iter
    (fun ea ->
      List.iter
        (fun ew ->
          List.iter
            (fun pm ->
              let ours = Interval.min_bits ~ea ~ew ~pm in
              let theirs =
                Precision.min_activation_bits { Precision.ea; ew } ~pm
                  ~bw:Interval.weight_bits
              in
              match (ours, theirs) with
              | Ok a, Ok b ->
                  check int
                    (Printf.sprintf "ba at ea=%g ew=%g pm=%g" ea ew pm)
                    b a
              | Error _, Error _ -> ()
              | _ ->
                  fail
                    (Printf.sprintf "feasibility disagrees at ea=%g ew=%g pm=%g"
                       ea ew pm))
            [ 0.5; 0.01; 1e-4; 1e-8 ])
        [ 0.3; 2.0; 150.0 ])
    [ 0.3; 2.0; 150.0 ]

(* ------------------------------------------------------------------ *)
(* Dataflow framework                                                  *)
(* ------------------------------------------------------------------ *)

module Count = Dataflow.Make (struct
  type t = int

  let bottom = 0
  let equal = Int.equal
  let join = max
end)

let test_dataflow_sequence () =
  (* "count the nodes before/after me" over a 4-node straight line —
     pins the entry/exit convention and the boundary init in both
     directions *)
  let g = Dataflow.of_sequence 4 in
  let fwd =
    Count.solve ~direction:Dataflow.Forward ~graph:g
      ~transfer:(fun _ fact -> fact + 1)
      ()
  in
  check bool "forward entry facts" true
    (Array.to_list fwd.Count.entry = [ 0; 1; 2; 3 ]);
  check bool "forward exit facts" true
    (Array.to_list fwd.Count.exit = [ 1; 2; 3; 4 ]);
  let bwd =
    Count.solve ~direction:Dataflow.Backward ~graph:g
      ~transfer:(fun _ fact -> fact + 1)
      ()
  in
  check bool "backward exit facts" true
    (Array.to_list bwd.Count.exit = [ 3; 2; 1; 0 ]);
  check bool "backward entry facts" true
    (Array.to_list bwd.Count.entry = [ 4; 3; 2; 1 ])

let test_dataflow_divergence_cap () =
  (* an unbounded lattice on a cycle must hit the fuel cap, not hang *)
  let cyc =
    {
      Dataflow.n = 2;
      succs = (fun i -> [ (i + 1) mod 2 ]);
      preds = (fun i -> [ (i + 1) mod 2 ]);
    }
  in
  match
    Count.solve ~direction:Dataflow.Forward ~graph:cyc
      ~transfer:(fun _ fact -> fact + 1)
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected the iteration cap to fire"

(* ------------------------------------------------------------------ *)
(* Liveness / dead code (P-DCE)                                        *)
(* ------------------------------------------------------------------ *)

let test_liveness_dead_pure () =
  (* seeded mutation: a pure reduce whose result is live nowhere *)
  let f =
    func
      [
        blk ~label:"entry" ~first:0
          [ Ssa.Reduce { op = Ssa.Rsum; operand = Ssa.Arg "x" } ]
          (Ssa.Ret None);
      ]
  in
  let ds = Liveness.check f in
  only_code "P-DCE-001" ds;
  check int "dead code is a warning" 1 (Diag.count_warnings ds)

let test_liveness_used_is_clean () =
  (* the same reduce, but returned — a terminator use keeps it live *)
  let f =
    func
      [
        blk ~label:"entry" ~first:0
          [ Ssa.Reduce { op = Ssa.Rsum; operand = Ssa.Arg "x" } ]
          (Ssa.Ret (Some (Ssa.Vreg 0)));
      ]
  in
  check int "returned value is live" 0 (List.length (Liveness.check f))

let test_liveness_loop_phi () =
  (* a loop-carried induction variable: the increment's only use is
     the phi on the back edge, so phi-edge attribution must keep it
     live (no false P-DCE-001) *)
  let f =
    func
      [
        blk ~label:"entry" ~first:0 [] (Ssa.Br "head");
        blk ~label:"head" ~first:0
          [
            Ssa.Phi
              {
                incoming = [ ("entry", Ssa.Const_int 0); ("body", Ssa.Vreg 1) ];
              };
          ]
          (Ssa.Cond_br
             { cond = Ssa.Const_int 1; if_true = "body"; if_false = "exit" });
        blk ~label:"body" ~first:1
          [ Ssa.Int_binop { op = Ssa.Iadd; lhs = Ssa.Vreg 0; rhs = Ssa.Const_int 1 } ]
          (Ssa.Br "head");
        blk ~label:"exit" ~first:2 [] (Ssa.Ret (Some (Ssa.Vreg 0)));
      ]
  in
  check int "loop-carried phi operand is live" 0
    (List.length (Liveness.check f));
  let lv = Liveness.ssa_liveness f in
  (* the increment must be live out of the body (consumed by the phi
     at the end of that edge) *)
  check bool "phi use is live out of the predecessor" true
    (Liveness.IntSet.mem 1 lv.Liveness.live_out.(2))

let shadow_lines =
  [
    "task c1=aREAD c2=square.avd c3=ADC c4=sigmoid des=xreg";
    "task c1=aREAD c2=square.avd c3=ADC c4=sigmoid des=xreg";
    "task c1=aADD c2=none.avd c3=ADC c4=accumulate acc=0 xprd=0";
  ]

let test_liveness_shadowed_store () =
  (* seeded mutation: two X-REG stores, one reader — the first store
     can never be observed *)
  let ds = Liveness.check_program (program_of_lines shadow_lines) in
  only_code "P-DCE-002" ds;
  check int "shadowed store is an error" 1 (Diag.count_errors ds);
  (* P-ISA-001 stays silent (both stores have a later X reader), so
     the two codes never double-report *)
  check bool "no P-ISA-001 double fire" false
    (List.mem "P-ISA-001" (codes (isa_diags shadow_lines)));
  check int "store-then-read is clean" 0
    (List.length
       (Liveness.check_program
          (program_of_lines
             [ List.nth shadow_lines 0; List.nth shadow_lines 2 ])))

(* ------------------------------------------------------------------ *)
(* X-REG pressure (P-REG)                                              *)
(* ------------------------------------------------------------------ *)

(* [k] matrix rows all live at once: k Getindex defs, then a pairwise
   sum chain, then a store of the final sum — peak vector pressure is
   exactly [k]. *)
let pressure_func k =
  let rows =
    List.init k (fun j ->
        Ssa.Getindex { matrix = Ssa.Arg "W"; index = Ssa.Const_int j })
  in
  let gep =
    [ Ssa.Getelementptr { base = Ssa.Arg "out"; index = Ssa.Const_int 0 } ]
  in
  let adds =
    List.init (k - 1) (fun i ->
        let lhs = if i = 0 then Ssa.Vreg 0 else Ssa.Vreg (k + i) in
        Ssa.Vec_binop { op = Ssa.Vadd; lhs; rhs = Ssa.Vreg (i + 1) })
  in
  let final = if k = 1 then 0 else (2 * k) - 1 in
  func
    ~params:[ ("W", Ssa.Matrix (k, 8)); ("out", Ssa.Vector 8) ]
    [
      blk ~label:"entry" ~first:0
        (rows @ gep
        @ adds
        @ [ Ssa.Store { src = Ssa.Vreg final; ptr = Ssa.Vreg k } ])
        (Ssa.Ret None);
    ]

let test_pressure_overflow () =
  (* seeded mutation: 9 simultaneously-live vectors on an 8-deep file *)
  let deep = P.Arch.Params.xreg_depth in
  let ds = Regpressure.check_function (pressure_func (deep + 1)) in
  only_code "P-REG-001" ds;
  check int "pressure overflow is an error" 1 (Diag.count_errors ds);
  check int "exactly full is clean" 0
    (List.length (Regpressure.check_function (pressure_func deep)));
  check int "pressure func is valid SSA" 0
    (List.length (Ssa_check.validate (pressure_func (deep + 1))))

let test_allocation_overlap () =
  (* seeded mutation: two placements sharing banks 2-3 over cycles 5-9 *)
  let a ~index ~first_bank ~banks ~start_cycle ~finish_cycle =
    {
      Regpressure.index;
      level = 0;
      first_bank;
      banks;
      start_cycle;
      finish_cycle;
    }
  in
  let overlapping =
    [
      a ~index:0 ~first_bank:0 ~banks:4 ~start_cycle:0 ~finish_cycle:10;
      a ~index:1 ~first_bank:2 ~banks:4 ~start_cycle:5 ~finish_cycle:15;
    ]
  in
  only_code "P-REG-002" (Regpressure.check_allocation overlapping);
  check int "disjoint banks are clean" 0
    (List.length
       (Regpressure.check_allocation
          [
            a ~index:0 ~first_bank:0 ~banks:4 ~start_cycle:0 ~finish_cycle:10;
            a ~index:1 ~first_bank:4 ~banks:4 ~start_cycle:5 ~finish_cycle:15;
          ]));
  check int "disjoint cycles are clean" 0
    (List.length
       (Regpressure.check_allocation
          [
            a ~index:0 ~first_bank:0 ~banks:4 ~start_cycle:0 ~finish_cycle:10;
            (* half-open: starting exactly at the other's finish is fine *)
            a ~index:1 ~first_bank:2 ~banks:4 ~start_cycle:10 ~finish_cycle:15;
          ]))

(* ------------------------------------------------------------------ *)
(* Analog-dwell timing hazards (P-TIM)                                 *)
(* ------------------------------------------------------------------ *)

let test_timing_budget () =
  let b = Timing_check.leakage_budget_ns () in
  check bool "nominal budget is ~47 ns" true (b > 40.0 && b < 55.0);
  check bool "budget shrinks with excess leakage" true
    (Timing_check.leakage_budget_ns ~leakage_mult:10.0 () < b /. 9.0)

let test_timing_dwell () =
  (* seeded mutation: a 128-iteration accumulation on a single
     surviving ADC unit dwells far past the leakage budget *)
  let tasks =
    program_of_lines
      [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate rpt=127" ]
  in
  has_code "P-TIM-001" (Timing_check.check_program ~adc_units:1 tasks);
  check int "full ADC complement is clean" 0
    (List.length (Timing_check.check_program tasks));
  (* a 100x leakage fault blows the budget even without ADC stalls:
     an ACC_NUM=3 group dwells 3 x TP cycles before its single read *)
  let grouped =
    program_of_lines
      [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate acc=3 rpt=7" ]
  in
  check int "24-cycle dwell is within the nominal budget" 0
    (List.length (Timing_check.check_program grouped));
  has_code "P-TIM-001" (Timing_check.check_program ~leakage_mult:100.0 grouped)

let test_timing_chain_mismatch () =
  (* seeded mutation: accumulation-chain members at different TP *)
  let mismatched =
    program_of_lines
      [
        "task c1=aREAD c2=sign_mult.avd c3=ADC c4=accumulate des=acc";
        "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=acc";
        "task c1=aREAD c2=square.avd c3=ADC c4=accumulate";
      ]
  in
  has_code "P-TIM-002" (Timing_check.check_program mismatched);
  let uniform =
    program_of_lines
      [
        "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=acc";
        "task c1=aREAD c2=square.avd c3=ADC c4=accumulate des=acc";
        "task c1=aREAD c2=square.avd c3=ADC c4=accumulate";
      ]
  in
  check bool "uniform chain has no P-TIM-002" false
    (List.mem "P-TIM-002" (codes (Timing_check.check_program uniform)))

let test_timing_backlog () =
  (* seeded mutation: 2 surviving units x TP 8 = 16 < 138-cycle
     conversion — requests outrun the ADC *)
  let tasks =
    program_of_lines [ "task c1=aREAD c2=square.avd c3=ADC c4=accumulate" ]
  in
  let ds = Timing_check.check_program ~adc_units:2 tasks in
  has_code "P-TIM-003" ds;
  check int "backlog is a warning" 1 (Diag.count_warnings ds);
  check int "full complement is silent" 0
    (List.length (Timing_check.check_program tasks))

let test_timing_validation () =
  let tasks = program_of_lines [ "task c1=read" ] in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> fail ("accepted " ^ what)
  in
  expect_invalid "adc_units 0" (fun () ->
      Timing_check.check_program ~adc_units:0 tasks);
  expect_invalid "batch 1" (fun () ->
      Timing_check.check_program ~batch:1 tasks);
  expect_invalid "leakage_mult 0" (fun () ->
      Timing_check.check_program ~leakage_mult:0.0 tasks)

(* ------------------------------------------------------------------ *)
(* Report driver                                                       *)
(* ------------------------------------------------------------------ *)

let test_driver_pasm_report () =
  let bad = "task c1=aREAD c2=square c4=accumulate\n" in
  let r = Lint.lint_pasm ~target:"bad.pasm" bad in
  check int "one error" 1 (Lint.errors r);
  check int "exit code 1" 1 (Lint.exit_code [ r ]);
  check bool "text names the target and line" true
    (contains ~sub:"bad.pasm: error[P-ISA-003] line 1" (Lint.render_text r));
  let j = Lint.render_json [ r ] in
  check bool "json carries the code" true (contains ~sub:"P-ISA-003" j)

let test_driver_clean_report () =
  let r = Lint.lint_pasm ~target:"ok.pasm" "task c1=read\n" in
  check int "clean" 0 (Lint.errors r + Lint.warnings r);
  check int "exit code 0" 0 (Lint.exit_code [ r ]);
  check str "summary" "0 error(s), 0 warning(s) in 1 target(s)"
    (Lint.summary [ r ])

let test_diag_fingerprint () =
  check str "digit runs collapse to #" "task # drifts # cycles"
    (Diag.skeleton "task 12 drifts 507 cycles");
  let at msg = Diag.warningf ~code:"P-TIM-003" ~span:(Diag.Task 3) "%s" msg in
  let d = at "dwell grows by 17 cycles" in
  let fp = Diag.fingerprint d in
  check int "16 hex chars" 16 (String.length fp);
  check bool "lowercase hex" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       fp);
  check str "identity is digit-insensitive" fp
    (Diag.fingerprint (at "dwell grows by 399 cycles"));
  check bool "wording changes identity" true
    (fp <> Diag.fingerprint (at "dwell shrinks by 17 cycles"));
  check bool "span changes identity" true
    (fp <> Diag.fingerprint (Diag.with_span d (Diag.Task 4)));
  check bool "salt changes identity" true
    (Diag.fingerprint ~salt:"a.pasm" d <> Diag.fingerprint ~salt:"b.pasm" d)

let test_driver_dedupe () =
  let d = Diag.errorf ~code:"P-ISA-003" ~span:(Diag.Task 1) "dropped" in
  let w = Diag.warningf ~code:"P-OVF-002" ~span:(Diag.Task 0) "sat" in
  let r = Lint.make ~target:"t" [ d; w; d; d; w ] in
  check int "structural duplicates collapse" 2 (List.length r.Lint.diags);
  check bool "span-major stable order" true
    (codes r.Lint.diags = [ "P-OVF-002"; "P-ISA-003" ])

let test_driver_deny_and_budget () =
  let w = Diag.warningf ~code:"P-TIM-003" ~span:(Diag.Task 0) "backlog" in
  let rs = [ Lint.make ~target:"t" [ w ] ] in
  check int "warnings alone pass" 0 (Lint.exit_code rs);
  check int "over budget fails" 1 (Lint.exit_code ~max_warnings:0 rs);
  check int "within budget passes" 0 (Lint.exit_code ~max_warnings:1 rs);
  let denied = Lint.apply_deny ~deny:[ "P-TIM" ] rs in
  check int "denied warning is an error" 1 (Lint.total_errors denied);
  check int "denied warning fails the run" 1 (Lint.exit_code denied);
  check int "other prefixes untouched" 0
    (Lint.total_errors (Lint.apply_deny ~deny:[ "P-OVF" ] rs))

let test_driver_baseline () =
  let w =
    Diag.warningf ~code:"P-TIM-003" ~span:(Diag.Task 0) "backlog 17 cycles"
  in
  let e = Diag.errorf ~code:"P-TIM-001" ~span:(Diag.Task 2) "dwell" in
  let rs = [ Lint.make ~target:"a.pasm" [ w; e ] ] in
  let json = Lint.baseline_of_reports rs in
  (match Lint.parse_baseline json with
  | Error msg -> fail msg
  | Ok fps ->
      check int "two fingerprints recorded" 2 (List.length fps);
      let rs', n = Lint.apply_baseline ~baseline:fps rs in
      check int "both suppressed" 2 n;
      check int "nothing left" 0
        (Lint.total_errors rs' + Lint.total_warnings rs');
      (* exactly fingerprinted: a new span is a new diagnostic *)
      let moved =
        [ Lint.make ~target:"a.pasm" [ Diag.with_span w (Diag.Task 5) ] ]
      in
      let moved', m = Lint.apply_baseline ~baseline:fps moved in
      check int "moved diagnostic is not suppressed" 0 m;
      check int "it survives as a warning" 1 (Lint.total_warnings moved');
      (* but a digit-only message drift keeps its identity *)
      let drift =
        [
          Lint.make ~target:"a.pasm"
            [
              Diag.warningf ~code:"P-TIM-003" ~span:(Diag.Task 0)
                "backlog 99 cycles";
            ];
        ]
      in
      let _, k = Lint.apply_baseline ~baseline:fps drift in
      check int "digit drift stays suppressed" 1 k;
      (* the target is part of the identity *)
      let other = [ Lint.make ~target:"b.pasm" [ w ] ] in
      let _, j = Lint.apply_baseline ~baseline:fps other in
      check int "another target is not suppressed" 0 j);
  (match Lint.parse_baseline "{}" with
  | Error _ -> ()
  | Ok _ -> fail "parsed a baseline without a fingerprints key");
  match Lint.parse_baseline {|{"version":1,"fingerprints":[]}|} with
  | Ok [] -> ()
  | _ -> fail "an empty baseline must parse to an empty list"

let test_driver_sarif () =
  let w = Diag.warningf ~code:"P-TIM-003" ~span:(Diag.Line 4) "backlog" in
  let rs = [ Lint.make ~target:"a.pasm" [ w ] ] in
  let s = Lint.render_sarif rs in
  List.iter
    (fun sub -> check bool sub true (contains ~sub s))
    [
      {|"version":"2.1.0"|};
      {|"name":"promise-lint"|};
      {|"rules":[{"id":"P-TIM-003"}]|};
      {|"ruleId":"P-TIM-003"|};
      {|"level":"warning"|};
      {|"startLine":4|};
      {|"artifactLocation":{"uri":"a.pasm"}|};
      {|"partialFingerprints":{"promiseLint/v1":"|};
    ]

(* ------------------------------------------------------------------ *)
(* Clean-lint property and acceptance sweeps                           *)
(* ------------------------------------------------------------------ *)

(* promise-lint's kernel lint, returning the diagnostics *)
let lint_kernel_diags k =
  (P.Compiler.Pipeline.lint_kernel ~target:k.Dsl.name k).Lint.diags

(* random geometry shared by the soundness properties *)
let random_kernel (rows, cols, op) =
  let body =
    match op with
    | 0 -> Dsl.dot "W" "x"
    | 1 -> Dsl.l1_distance "W" "x"
    | _ -> Dsl.l2_distance "W" "x"
  in
  Dsl.kernel ~name:"prop"
    ~decls:
      [ Dsl.matrix "W" ~rows ~cols; Dsl.vector "x" ~len:cols;
        Dsl.out_vector "out" ~len:rows ]
    [ Dsl.for_store ~iterations:rows ~out:"out" body ]

(* ---- soundness: liveness covers every use ---- *)

let value_vregs vs =
  List.filter_map (function Ssa.Vreg r -> Some r | _ -> None) vs

let instr_values = function
  | Ssa.Getindex { matrix; index } -> [ matrix; index ]
  | Ssa.Vec_binop { lhs; rhs; _ }
  | Ssa.Int_binop { lhs; rhs; _ }
  | Ssa.Icmp { lhs; rhs; _ } ->
      [ lhs; rhs ]
  | Ssa.Vec_unop { operand; _ }
  | Ssa.Reduce { operand; _ }
  | Ssa.Scalar_unop { operand; _ } ->
      [ operand ]
  | Ssa.Load { ptr } -> [ ptr ]
  | Ssa.Getelementptr { base; index } -> [ base; index ]
  | Ssa.Store { src; ptr } -> [ src; ptr ]
  | Ssa.Phi { incoming } -> List.map snd incoming
  | Ssa.Call { args; _ } -> args

let term_values = function
  | Ssa.Br _ -> []
  | Ssa.Cond_br { cond; _ } -> [ cond ]
  | Ssa.Ret v -> Option.to_list v

(* Independent statement of soundness, checked against the solver's
   fixpoint: every vreg an instruction consumes is either defined
   earlier in the same block or live into the block; every phi operand
   is live out of its incoming predecessor. *)
let liveness_covers_uses f =
  let lv = Liveness.ssa_liveness f in
  let index_of = Hashtbl.create 8 in
  List.iteri
    (fun i (b : Ssa.block) -> Hashtbl.replace index_of b.Ssa.label i)
    f.Ssa.blocks;
  List.for_all Fun.id
    (List.mapi
       (fun bi (b : Ssa.block) ->
         let defined = ref Liveness.IntSet.empty in
         let ok_use r =
           Liveness.IntSet.mem r !defined
           || Liveness.IntSet.mem r lv.Liveness.live_in.(bi)
         in
         let instr_ok pos ins =
           let ok =
             match ins with
             | Ssa.Phi { incoming } ->
                 List.for_all
                   (fun (lbl, v) ->
                     match v with
                     | Ssa.Vreg r -> (
                         match Hashtbl.find_opt index_of lbl with
                         | Some pi ->
                             Liveness.IntSet.mem r lv.Liveness.live_out.(pi)
                         | None -> false)
                     | _ -> true)
                   incoming
             | _ -> List.for_all ok_use (value_vregs (instr_values ins))
           in
           defined :=
             Liveness.IntSet.add (b.Ssa.first_index + pos) !defined;
           ok
         in
         Array.for_all Fun.id (Array.mapi instr_ok b.Ssa.instrs)
         && List.for_all ok_use (value_vregs (term_values b.Ssa.terminator)))
       f.Ssa.blocks)

let qcheck_liveness_sound =
  let gen =
    QCheck.Gen.(triple (int_range 1 16) (int_range 2 300) (int_range 0 2))
  in
  QCheck.Test.make ~name:"liveness covers every runtime-read value" ~count:50
    (QCheck.make gen)
    (fun shape ->
      let f = Dsl.lower (random_kernel shape) in
      liveness_covers_uses f && Liveness.check f = [])

(* ---- soundness: reported pressure matches an independent
        straight-line recomputation ---- *)

let naive_vector_peak f =
  match f.Ssa.blocks with
  | [ b ] ->
      let module S = Liveness.IntSet in
      let vecs = ref S.empty in
      Array.iteri
        (fun i ins ->
          match ins with
          | Ssa.Getindex _ | Ssa.Vec_binop _ | Ssa.Vec_unop _ ->
              vecs := S.add (b.Ssa.first_index + i) !vecs
          | _ -> ())
        b.Ssa.instrs;
      let live = ref (S.of_list (value_vregs (term_values b.Ssa.terminator))) in
      let peak = ref 0 in
      for i = Array.length b.Ssa.instrs - 1 downto 0 do
        peak := max !peak (S.cardinal (S.inter !live !vecs));
        live := S.remove (b.Ssa.first_index + i) !live;
        List.iter
          (fun r -> live := S.add r !live)
          (value_vregs (instr_values b.Ssa.instrs.(i)))
      done;
      !peak
  | _ -> invalid_arg "naive_vector_peak: single block only"

let qcheck_pressure_exact =
  QCheck.Test.make
    ~name:"X-REG pressure matches brute-force straight-line peak" ~count:24
    (QCheck.make QCheck.Gen.(int_range 1 12))
    (fun k ->
      let f = pressure_func k in
      let reported = Regpressure.max_pressure f in
      reported = k
      && reported = naive_vector_peak f
      && (k <= P.Arch.Params.xreg_depth)
         = (Regpressure.check_function f = []))

(* ---- soundness: concrete machine outputs stay within the interval
        bounds ---- *)

let qcheck_interval_bounds_sound =
  (* Bind data whose max-abs is pinned at 1.0 so the runtime's
     quantization scales are known (rescale = 1/0.99^2 for a multiply
     kernel), run on a noise-free machine, and demand every emitted
     value sit inside the analysis bounds. The analysis works in
     per-lane-mean units (one ADC sample is the charge-share mean of a
     segment, the TH sums one sample per segment), so the original-
     units output maps back as v / rescale / lanes_per_bank; slack
     covers only the 8-bit input/ADC quantization. *)
  let gen =
    QCheck.Gen.(triple (int_range 1 4) (int_range 2 256) (int_range 0 9999))
  in
  QCheck.Test.make ~name:"machine outputs stay within Interval bounds"
    ~count:20 (QCheck.make gen)
    (fun (rows, cols, seed) ->
      let k = random_kernel (rows, cols, 0) in
      let ssa = Dsl.lower k in
      match Pattern.match_function ssa with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok graph -> (
          let reports, _ = Interval.analyze graph in
          let rng = Random.State.make [| seed |] in
          let elt () = Random.State.float rng 2.0 -. 1.0 in
          let w = Array.init rows (fun _ -> Array.init cols (fun _ -> elt ())) in
          let x = Array.init cols (fun _ -> elt ()) in
          w.(0).(0) <- 1.0;
          x.(0) <- 1.0;
          let b = Runtime.bindings () in
          Runtime.bind_matrix b "W" w;
          Runtime.bind_vector b "x" x;
          let lanes =
            match P.Arch.Layout.plan ~vector_len:cols ~rows () with
            | Ok p -> float_of_int p.P.Arch.Layout.lanes_per_bank
            | Error msg -> QCheck.Test.fail_report msg
          in
          let machine =
            Machine.create
              (Machine.ideal_config ~banks:(Runtime.required_banks graph))
          in
          match Runtime.run ~machine graph b with
          | Error e -> QCheck.Test.fail_report (P.Error.to_string e)
          | Ok res ->
              let rescale = 1.0 /. (0.99 *. 0.99) in
              let slack = 0.06 in
              List.for_all
                (fun (node, (out : Runtime.task_output)) ->
                  match
                    List.find_opt (fun r -> r.Interval.node = node) reports
                  with
                  | None -> true
                  | Some r ->
                      Array.for_all
                        (fun v ->
                          let nv = v /. rescale /. lanes in
                          nv >= r.Interval.emitted.Interval.lo -. slack
                          && nv <= r.Interval.emitted.Interval.hi +. slack)
                        out.Runtime.values)
                res.Runtime.outputs))

let qcheck_random_kernels_lint_clean =
  (* the compiler must never emit a program its own linter rejects:
     random geometry and distance metric, every pass, zero errors *)
  let gen =
    QCheck.Gen.(triple (int_range 1 16) (int_range 2 300) (int_range 0 2))
  in
  QCheck.Test.make ~name:"random DSL kernels lint clean" ~count:50
    (QCheck.make gen)
    (fun shape -> Diag.count_errors (lint_kernel_diags (random_kernel shape)) = 0)

let test_example_kernels_lint_clean () =
  List.iter
    (fun path ->
      match Sexp_frontend.parse_file path with
      | Error msg -> fail (path ^ ": " ^ msg)
      | Ok k ->
          let ds = lint_kernel_diags k in
          check int (path ^ " has no diagnostics") 0 (List.length ds))
    [
      "../examples/kernels/template_matching.sexp";
      "../examples/kernels/svm.sexp";
      "../examples/kernels/mlp.sexp";
      "../examples/kernels/linreg.sexp";
    ]

let test_benchmarks_lint_clean () =
  List.iter
    (fun (b : B.t) ->
      check int (b.B.name ^ " has no diagnostics") 0
        (List.length (B.lint b).Lint.diags))
    (B.fig10_suite () @ [ B.dnn B.D1 ])

let () =
  Alcotest.run "lint"
    [
      ( "diag",
        [
          Alcotest.test_case "render" `Quick test_diag_render;
          Alcotest.test_case "sort" `Quick test_diag_sort;
          Alcotest.test_case "to_error" `Quick test_diag_to_error;
          Alcotest.test_case "json" `Quick test_diag_json;
        ] );
      ( "task-mutations",
        [
          Alcotest.test_case "assembler and per-task codes" `Quick
            test_task_mutations;
        ] );
      ( "isa-verifier",
        [
          Alcotest.test_case "clean program" `Quick test_isa_clean;
          Alcotest.test_case "seeded violations" `Quick test_isa_mutations;
          Alcotest.test_case "consumed X-REG store" `Quick
            test_isa_xreg_consumed_is_clean;
        ] );
      ( "ssa-validator",
        [
          Alcotest.test_case "seeded violations" `Quick test_ssa_mutations;
          Alcotest.test_case "builder missing terminator" `Quick
            test_ssa_builder_missing_terminator;
          Alcotest.test_case "frontend output validates" `Quick
            test_ssa_frontend_output_validates;
        ] );
      ( "interval",
        [
          Alcotest.test_case "saturating relu chain" `Quick
            test_interval_saturation;
          Alcotest.test_case "terminal relu is clean" `Quick
            test_interval_terminal_is_clean;
          Alcotest.test_case "sakr feasibility" `Quick
            test_interval_check_stats;
          Alcotest.test_case "min_bits matches Precision" `Quick
            test_min_bits_matches_precision;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "sequence convention" `Quick
            test_dataflow_sequence;
          Alcotest.test_case "divergence cap" `Quick
            test_dataflow_divergence_cap;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "dead pure instruction" `Quick
            test_liveness_dead_pure;
          Alcotest.test_case "returned value is live" `Quick
            test_liveness_used_is_clean;
          Alcotest.test_case "loop-carried phi" `Quick test_liveness_loop_phi;
          Alcotest.test_case "shadowed X-REG store" `Quick
            test_liveness_shadowed_store;
        ] );
      ( "regpressure",
        [
          Alcotest.test_case "pressure overflow" `Quick test_pressure_overflow;
          Alcotest.test_case "allocation overlap" `Quick
            test_allocation_overlap;
        ] );
      ( "timing",
        [
          Alcotest.test_case "leakage budget" `Quick test_timing_budget;
          Alcotest.test_case "dwell past budget" `Quick test_timing_dwell;
          Alcotest.test_case "chain cadence mismatch" `Quick
            test_timing_chain_mismatch;
          Alcotest.test_case "ADC backlog" `Quick test_timing_backlog;
          Alcotest.test_case "parameter validation" `Quick
            test_timing_validation;
        ] );
      ( "driver",
        [
          Alcotest.test_case "pasm report" `Quick test_driver_pasm_report;
          Alcotest.test_case "clean report" `Quick test_driver_clean_report;
          Alcotest.test_case "fingerprints" `Quick test_diag_fingerprint;
          Alcotest.test_case "dedupe" `Quick test_driver_dedupe;
          Alcotest.test_case "deny and warning budget" `Quick
            test_driver_deny_and_budget;
          Alcotest.test_case "baseline round trip" `Quick test_driver_baseline;
          Alcotest.test_case "sarif rendering" `Quick test_driver_sarif;
        ] );
      ( "acceptance",
        [
          QCheck_alcotest.to_alcotest qcheck_random_kernels_lint_clean;
          QCheck_alcotest.to_alcotest qcheck_liveness_sound;
          QCheck_alcotest.to_alcotest qcheck_pressure_exact;
          QCheck_alcotest.to_alcotest qcheck_interval_bounds_sound;
          Alcotest.test_case "example kernels lint clean" `Quick
            test_example_kernels_lint_clean;
          Alcotest.test_case "benchmarks lint clean" `Slow
            test_benchmarks_lint_clean;
        ] );
    ]
