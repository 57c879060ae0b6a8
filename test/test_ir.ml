(* Compiler IR tests: SSA construction/verification, the DSL frontend,
   the Figure-7 pattern matcher (including loop canonicalization and
   decision fusion), and the AbstractTask DAG. *)

open Promise.Ir

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

let ok_or_fail = function Ok v -> v | Error msg -> fail msg

(* ------------------------------------------------------------------ *)
(* SSA                                                                 *)
(* ------------------------------------------------------------------ *)

let simple_func () =
  let b =
    Ssa.For_tests.Builder.create ~name:"f"
      ~params:[ ("W", Ssa.Matrix (4, 8)); ("x", Ssa.Vector 8) ]
  in
  Ssa.For_tests.Builder.block b "entry";
  let row =
    Ssa.For_tests.Builder.instr b
      (Ssa.Getindex { matrix = Ssa.Arg "W"; index = Ssa.Const_int 0 })
  in
  let prod =
    Ssa.For_tests.Builder.instr b
      (Ssa.Vec_binop { op = Ssa.Vmul; lhs = row; rhs = Ssa.Arg "x" })
  in
  let sum = Ssa.For_tests.Builder.instr b (Ssa.Reduce { op = Ssa.Rsum; operand = prod }) in
  Ssa.For_tests.Builder.terminate b (Ssa.Ret (Some sum));
  Ssa.For_tests.Builder.finish b

let test_builder_produces_valid_ssa () =
  let f = simple_func () in
  check str "name" "f" f.Ssa.name;
  check int "one block" 1 (List.length f.Ssa.blocks);
  match Ssa.verify f with Ok () -> () | Error msg -> fail msg

let test_param_ty () =
  let f = simple_func () in
  (match Ssa.param_ty f "W" with
  | Some (Ssa.Matrix (4, 8)) -> ()
  | _ -> fail "W type");
  check bool "unknown param" true (Ssa.param_ty f "nope" = None)

let test_def_of () =
  let f = simple_func () in
  match Ssa.For_tests.def_of f 1 with
  | Some (_, Ssa.Vec_binop { op = Ssa.Vmul; _ }) -> ()
  | _ -> fail "register 1 should be the multiply"

let test_verify_rejects_undefined_register () =
  let b = Ssa.For_tests.Builder.create ~name:"g" ~params:[] in
  Ssa.For_tests.Builder.block b "entry";
  ignore (Ssa.For_tests.Builder.instr b (Ssa.Load { ptr = Ssa.Vreg 99 }));
  Ssa.For_tests.Builder.terminate b (Ssa.Ret None);
  match Ssa.For_tests.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "undefined register must be rejected"

let test_verify_rejects_unknown_label () =
  let b = Ssa.For_tests.Builder.create ~name:"g" ~params:[] in
  Ssa.For_tests.Builder.block b "entry";
  Ssa.For_tests.Builder.terminate b (Ssa.Br "nowhere");
  match Ssa.For_tests.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "unknown branch target must be rejected"

let test_builder_requires_terminator () =
  let b = Ssa.For_tests.Builder.create ~name:"g" ~params:[] in
  Ssa.For_tests.Builder.block b "entry";
  match Ssa.For_tests.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "missing terminator must be rejected"

let test_verify_rejects_unknown_arg () =
  let b = Ssa.For_tests.Builder.create ~name:"g" ~params:[] in
  Ssa.For_tests.Builder.block b "entry";
  ignore (Ssa.For_tests.Builder.instr b (Ssa.Load { ptr = Ssa.Arg "mystery" }));
  Ssa.For_tests.Builder.terminate b (Ssa.Ret None);
  match Ssa.For_tests.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "unknown argument must be rejected"

(* ------------------------------------------------------------------ *)
(* DSL lowering                                                        *)
(* ------------------------------------------------------------------ *)

let svm_kernel =
  Dsl.kernel ~name:"svm"
    ~decls:
      [
        Dsl.matrix "W" ~rows:1 ~cols:16;
        Dsl.vector "x" ~len:16;
        Dsl.out_vector "out" ~len:1;
      ]
    [
      Dsl.for_store ~iterations:1 ~out:"out"
        (Dsl.sthreshold 0.0 (Dsl.dot "W" "x"));
    ]

let tm_kernel ~countdown =
  let loop =
    if countdown then Dsl.for_store_countdown else Dsl.for_store
  in
  Dsl.kernel ~name:"tm"
    ~decls:
      [
        Dsl.matrix "W" ~rows:64 ~cols:256;
        Dsl.vector "x" ~len:256;
        Dsl.out_vector "out" ~len:64;
      ]
    [ loop ~iterations:64 ~out:"out" (Dsl.l1_distance "W" "x"); Dsl.argmin "out" ]

let test_dsl_lowering_verifies () =
  let f = Dsl.lower (tm_kernel ~countdown:false) in
  (match Ssa.verify f with Ok () -> () | Error msg -> fail msg);
  (* entry + loop + after *)
  check int "three blocks" 3 (List.length f.Ssa.blocks)

let test_dsl_undeclared_array_rejected () =
  let k =
    Dsl.kernel ~name:"bad" ~decls:[]
      [ Dsl.for_store ~iterations:1 ~out:"out" (Dsl.dot "W" "x") ]
  in
  match Dsl.lower k with
  | exception Invalid_argument _ -> ()
  | _ -> fail "undeclared arrays must be rejected"

let test_dsl_multi_statement_chain () =
  let k =
    Dsl.kernel ~name:"mlp"
      ~decls:
        [
          Dsl.matrix "W0" ~rows:8 ~cols:16;
          Dsl.matrix "W1" ~rows:4 ~cols:8;
          Dsl.vector "x" ~len:16;
          Dsl.out_vector "h" ~len:8;
          Dsl.out_vector "y" ~len:4;
        ]
      [
        Dsl.for_store ~iterations:8 ~out:"h" (Dsl.sigmoid (Dsl.dot "W0" "x"));
        Dsl.for_store ~iterations:4 ~out:"y" (Dsl.sigmoid (Dsl.dot "W1" "h"));
      ]
  in
  let f = Dsl.lower k in
  check int "five blocks" 5 (List.length f.Ssa.blocks)

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)
(* ------------------------------------------------------------------ *)

let test_find_loops () =
  let f = Dsl.lower (tm_kernel ~countdown:false) in
  match Pattern.For_tests.find_loops f with
  | [ info ] ->
      check int "iterations" 64 info.Pattern.iterations;
      check int "start" 0 info.Pattern.start
  | loops -> fail (Printf.sprintf "expected 1 loop, got %d" (List.length loops))

let test_countdown_canonicalized () =
  (* the paper: pattern matching must survive "the loop index variable
     being incremented instead of decremented" *)
  let f = Dsl.lower (tm_kernel ~countdown:true) in
  match Pattern.For_tests.find_loops f with
  | [ info ] -> check int "iterations" 64 info.Pattern.iterations
  | _ -> fail "countdown loop not canonicalized"

let extract_single kernel =
  let g = ok_or_fail (Pattern.match_function (Dsl.lower kernel)) in
  match Graph.tasks g with
  | [ (_, t) ] -> t
  | ts -> fail (Printf.sprintf "expected 1 task, got %d" (List.length ts))

let test_match_l1_with_argmin_fusion () =
  let t = extract_single (tm_kernel ~countdown:false) in
  check bool "vec sub" true
    (t.Abstract_task.vec_op = Abstract_task.Vo_sub);
  check bool "red sum_abs" true
    (t.Abstract_task.red_op = Abstract_task.Ro_sum_abs);
  check bool "argmin fused into Class-4 min" true
    (Abstract_task.equal_digital_op t.Abstract_task.digital_op
       Abstract_task.Do_min);
  check int "vector_len" 256 t.Abstract_task.vector_len;
  check int "iterations" 64 t.Abstract_task.loop_iterations;
  check str "W" "W" t.Abstract_task.w;
  check str "X" "x" t.Abstract_task.x;
  check int "initial swing is max" 7 t.Abstract_task.swing

let test_match_threshold () =
  let t = extract_single svm_kernel in
  check bool "threshold op" true
    (Abstract_task.equal_digital_op t.Abstract_task.digital_op
       Abstract_task.Do_threshold);
  check bool "mul vec op" true
    (t.Abstract_task.vec_op = Abstract_task.Vo_mul_signed)

let test_match_l2 () =
  let k =
    Dsl.kernel ~name:"l2"
      ~decls:
        [
          Dsl.matrix "W" ~rows:4 ~cols:8;
          Dsl.vector "x" ~len:8;
          Dsl.out_vector "out" ~len:4;
        ]
      [ Dsl.for_store ~iterations:4 ~out:"out" (Dsl.l2_distance "W" "x") ]
  in
  let t = extract_single k in
  check bool "red sum_square" true
    (t.Abstract_task.red_op = Abstract_task.Ro_sum_square)

let test_match_sigmoid_relu () =
  let mk act =
    Dsl.kernel ~name:"act"
      ~decls:
        [
          Dsl.matrix "W" ~rows:4 ~cols:8;
          Dsl.vector "x" ~len:8;
          Dsl.out_vector "out" ~len:4;
        ]
      [ Dsl.for_store ~iterations:4 ~out:"out" (act (Dsl.dot "W" "x")) ]
  in
  let t = extract_single (mk Dsl.sigmoid) in
  check bool "sigmoid" true
    (Abstract_task.equal_digital_op t.Abstract_task.digital_op
       Abstract_task.Do_sigmoid);
  let t = extract_single (mk Dsl.relu) in
  check bool "relu" true
    (Abstract_task.equal_digital_op t.Abstract_task.digital_op
       Abstract_task.Do_relu)

let test_match_whole_array_reductions () =
  let k =
    Dsl.kernel ~name:"linreg"
      ~decls:
        [
          Dsl.matrix "U" ~rows:2 ~cols:16;
          Dsl.matrix "V" ~rows:2 ~cols:16;
          Dsl.vector "Vvec" ~len:32;
        ]
      [
        Dsl.mean "U";
        Dsl.mean "V";
        Dsl.mean_square "U";
        Dsl.mean_product "U" "Vvec";
      ]
  in
  let g = ok_or_fail (Pattern.match_function (Dsl.lower k)) in
  check int "four tasks" 4 (Graph.n_tasks g);
  let ops =
    List.map
      (fun (_, t) -> (t.Abstract_task.vec_op, t.Abstract_task.red_op))
      (Graph.tasks g)
  in
  check bool "mean is a plain sum" true
    (List.exists
       (fun (v, r) ->
         v = Abstract_task.Vo_none
         && r = Abstract_task.Ro_sum)
       ops);
  check bool "mean_square squares" true
    (List.exists
       (fun (v, r) ->
         v = Abstract_task.Vo_none
         && r = Abstract_task.Ro_sum_square)
       ops);
  check bool "mean_product multiplies" true
    (List.exists
       (fun (v, _) -> v = Abstract_task.Vo_mul_signed)
       ops)

let test_match_dnn_chain_builds_pipeline () =
  let k =
    Dsl.kernel ~name:"mlp"
      ~decls:
        [
          Dsl.matrix "W0" ~rows:8 ~cols:16;
          Dsl.matrix "W1" ~rows:4 ~cols:8;
          Dsl.vector "x" ~len:16;
          Dsl.out_vector "h" ~len:8;
          Dsl.out_vector "y" ~len:4;
        ]
      [
        Dsl.for_store ~iterations:8 ~out:"h" (Dsl.sigmoid (Dsl.dot "W0" "x"));
        Dsl.for_store ~iterations:4 ~out:"y" (Dsl.sigmoid (Dsl.dot "W1" "h"));
      ]
  in
  let g = ok_or_fail (Pattern.match_function (Dsl.lower k)) in
  check int "two tasks" 2 (Graph.n_tasks g);
  check int "one dataflow edge" 1 (List.length (Graph.For_tests.edges g));
  check bool "linear pipeline" true (Graph.For_tests.is_linear_pipeline g);
  match Graph.For_tests.edges g with
  | [ e ] ->
      check bool "X edge" true (Graph.equal_port e.Graph.port Graph.X_input)
  | _ -> fail "edge expected"

let test_unsupported_call_rejected () =
  let b =
    Ssa.For_tests.Builder.create ~name:"f" ~params:[ ("W", Ssa.Matrix (2, 4)) ]
  in
  Ssa.For_tests.Builder.block b "entry";
  ignore (Ssa.For_tests.Builder.instr b (Ssa.Call { fn = "fft"; args = [ Ssa.Arg "W" ] }));
  Ssa.For_tests.Builder.terminate b (Ssa.Ret None);
  match Pattern.match_function (Ssa.For_tests.Builder.finish b) with
  | Error _ -> ()
  | Ok _ -> fail "unknown library call must be rejected"

let test_no_offloadable_computation () =
  let b = Ssa.For_tests.Builder.create ~name:"f" ~params:[] in
  Ssa.For_tests.Builder.block b "entry";
  Ssa.For_tests.Builder.terminate b (Ssa.Ret None);
  match Pattern.match_function (Ssa.For_tests.Builder.finish b) with
  | Error _ -> ()
  | Ok _ -> fail "empty function cannot be offloaded"

let test_loop_bound_exceeding_rows_rejected () =
  (* a loop of 9 iterations over an 8-row matrix must not match *)
  let k =
    Dsl.kernel ~name:"bad"
      ~decls:
        [
          Dsl.matrix "W" ~rows:8 ~cols:4;
          Dsl.vector "x" ~len:4;
          Dsl.out_vector "out" ~len:9;
        ]
      [ Dsl.for_store ~iterations:9 ~out:"out" (Dsl.dot "W" "x") ]
  in
  match Pattern.match_function (Dsl.lower k) with
  | Error _ -> ()
  | Ok _ -> fail "overrunning loop must be rejected"

(* ------------------------------------------------------------------ *)
(* AbstractTask & Graph                                                *)
(* ------------------------------------------------------------------ *)

let task name ~w ~x ~output =
  Abstract_task.make ~name ~w ~x ~output ~vec_op:Abstract_task.Vo_mul_signed
    ~red_op:Abstract_task.Ro_sum ~digital_op:Abstract_task.Do_none
    ~vector_len:8 ~loop_iterations:4 ()

let test_abstract_task_validation () =
  (match
     Abstract_task.make ~w:"W" ~x:"x" ~output:"o"
       ~vec_op:Abstract_task.Vo_none ~red_op:Abstract_task.Ro_sum
       ~digital_op:Abstract_task.Do_none ~vector_len:0 ~loop_iterations:1 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> fail "vector_len 0 must be rejected");
  match Abstract_task.with_swing (task "t" ~w:"W" ~x:"x" ~output:"o") 9 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "swing 9 must be rejected"

let test_abstract_task_helpers () =
  let t = task "t" ~w:"W" ~x:"x" ~output:"o" in
  check bool "uses x" true (Abstract_task.uses_x t);
  let t' =
    Abstract_task.make ~w:"W" ~x:"" ~output:"o" ~vec_op:Abstract_task.Vo_none
      ~red_op:Abstract_task.Ro_sum ~digital_op:Abstract_task.Do_mean
      ~vector_len:8 ~loop_iterations:4 ()
  in
  check bool "vo_none needs no x" false (Abstract_task.uses_x t')

let test_graph_topological_order () =
  let g =
    ok_or_fail
      (Graph.of_tasks
         [
           task "a" ~w:"W0" ~x:"x" ~output:"h1";
           task "b" ~w:"W1" ~x:"h1" ~output:"h2";
           task "c" ~w:"W2" ~x:"h2" ~output:"y";
         ])
  in
  check (Alcotest.list int) "topo order" [ 0; 1; 2 ] (Graph.topological_order g);
  check int "two edges" 2 (List.length (Graph.For_tests.edges g));
  check bool "pipeline" true (Graph.For_tests.is_linear_pipeline g)

let test_graph_cycle_rejected () =
  let g = Graph.For_tests.empty in
  let a, g = Graph.For_tests.add_task g (task "a" ~w:"W" ~x:"x" ~output:"oa") in
  let b, g = Graph.For_tests.add_task g (task "b" ~w:"W" ~x:"oa" ~output:"ob") in
  let g =
    ok_or_fail (Graph.For_tests.connect g ~producer:a ~consumer:b ~port:Graph.X_input)
  in
  match Graph.For_tests.connect g ~producer:b ~consumer:a ~port:Graph.X_input with
  | Error _ -> ()
  | Ok _ -> fail "cycle must be rejected"

let test_graph_map_tasks () =
  let g =
    ok_or_fail (Graph.of_tasks [ task "a" ~w:"W" ~x:"x" ~output:"o" ])
  in
  let g' = Graph.map_tasks g (fun _ t -> Abstract_task.with_swing t 3) in
  check int "swing updated" 3 (Graph.task g' 0).Abstract_task.swing

let test_graph_predecessors () =
  let g =
    ok_or_fail
      (Graph.of_tasks
         [
           task "a" ~w:"W0" ~x:"x" ~output:"h";
           task "b" ~w:"W1" ~x:"h" ~output:"y";
         ])
  in
  check int "b has one predecessor" 1 (List.length (Graph.predecessors g 1));
  check int "a has one successor" 1 (List.length (Graph.successors g 0));
  check int "a has no predecessor" 0 (List.length (Graph.predecessors g 0))

let qcheck_dsl_roundtrip_dimensions =
  (* for random kernel geometries the matched task reproduces the
     declared dimensions *)
  QCheck.Test.make ~name:"pattern preserves kernel geometry" ~count:100
    (QCheck.pair (QCheck.int_range 1 64) (QCheck.int_range 1 512))
    (fun (rows, cols) ->
      let k =
        Dsl.kernel ~name:"k"
          ~decls:
            [
              Dsl.matrix "W" ~rows ~cols;
              Dsl.vector "x" ~len:cols;
              Dsl.out_vector "out" ~len:rows;
            ]
          [ Dsl.for_store ~iterations:rows ~out:"out" (Dsl.dot "W" "x") ]
      in
      match Pattern.match_function (Dsl.lower k) with
      | Ok g -> (
          match Graph.tasks g with
          | [ (_, t) ] ->
              t.Abstract_task.vector_len = cols
              && t.Abstract_task.loop_iterations = rows
          | _ -> false)
      | Error _ -> false)

let suite =
  [
    ("builder produces valid SSA", `Quick, test_builder_produces_valid_ssa);
    ("param types", `Quick, test_param_ty);
    ("def_of", `Quick, test_def_of);
    ("verify: undefined register", `Quick, test_verify_rejects_undefined_register);
    ("verify: unknown label", `Quick, test_verify_rejects_unknown_label);
    ("builder: missing terminator", `Quick, test_builder_requires_terminator);
    ("verify: unknown argument", `Quick, test_verify_rejects_unknown_arg);
    ("dsl lowering verifies", `Quick, test_dsl_lowering_verifies);
    ("dsl rejects undeclared arrays", `Quick, test_dsl_undeclared_array_rejected);
    ("dsl multi-statement chain", `Quick, test_dsl_multi_statement_chain);
    ("find single-block loops", `Quick, test_find_loops);
    ("countdown loops canonicalized", `Quick, test_countdown_canonicalized);
    ("match L1 + argmin fusion (§3.4)", `Quick, test_match_l1_with_argmin_fusion);
    ("match threshold decision", `Quick, test_match_threshold);
    ("match L2", `Quick, test_match_l2);
    ("match sigmoid/relu", `Quick, test_match_sigmoid_relu);
    ("match whole-array reductions", `Quick, test_match_whole_array_reductions);
    ("match DNN chain", `Quick, test_match_dnn_chain_builds_pipeline);
    ("unsupported call rejected", `Quick, test_unsupported_call_rejected);
    ("no offloadable computation", `Quick, test_no_offloadable_computation);
    ("loop bound over rows rejected", `Quick, test_loop_bound_exceeding_rows_rejected);
    ("abstract task validation", `Quick, test_abstract_task_validation);
    ("abstract task helpers", `Quick, test_abstract_task_helpers);
    ("graph topological order", `Quick, test_graph_topological_order);
    ("graph cycle rejected", `Quick, test_graph_cycle_rejected);
    ("graph map tasks", `Quick, test_graph_map_tasks);
    ("graph predecessors/successors", `Quick, test_graph_predecessors);
    QCheck_alcotest.to_alcotest qcheck_dsl_roundtrip_dimensions;
  ]

let () = Alcotest.run "promise-ir" [ ("ir", suite) ]
