(* Tests for the S-expression frontend: reader, kernel elaboration,
   error reporting, and — the point of the exercise — equivalence with
   the OCaml-embedded DSL through the shared language-neutral IR
   (paper §4.1). *)

open Promise.Ir
module Sexp = Sexp_frontend

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int

let ok_or_fail = function Ok v -> v | Error msg -> fail msg

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let test_reader_atoms_and_lists () =
  match Sexp.For_tests.sexp_of_string "(a (b 12) c)" with
  | Ok [ Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "12" ]; Sexp.Atom "c" ] ] ->
      ()
  | Ok other ->
      fail
        (Format.asprintf "unexpected parse: %a"
           (Format.pp_print_list Sexp.For_tests.pp_sexp)
           other)
  | Error msg -> fail msg

let test_reader_comments () =
  match Sexp.For_tests.sexp_of_string "; header\n(a) ; trailing\n(b)" with
  | Ok [ Sexp.List [ Sexp.Atom "a" ]; Sexp.List [ Sexp.Atom "b" ] ] -> ()
  | _ -> fail "comments must be skipped"

let test_reader_unbalanced () =
  (match Sexp.For_tests.sexp_of_string "(a (b)" with
  | Error _ -> ()
  | Ok _ -> fail "missing ')' must fail");
  match Sexp.For_tests.sexp_of_string "a))" with
  | Error _ -> ()
  | Ok _ -> fail "stray ')' must fail"

let test_reader_whitespace_robust () =
  match Sexp.For_tests.sexp_of_string "(\n  a\t( b\r\n12 )\n)" with
  | Ok [ Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "12" ] ] ] ->
      ()
  | _ -> fail "whitespace handling"

(* ------------------------------------------------------------------ *)
(* Kernel elaboration                                                  *)
(* ------------------------------------------------------------------ *)

let tm_source =
  "(kernel tm\n\
  \  (matrix W 64 256)\n\
  \  (vector x 256)\n\
  \  (output out 64)\n\
  \  (for 64 out (l1 W x))\n\
  \  (argmin out))"

let test_parse_template_kernel () =
  let kernel = ok_or_fail (Sexp.parse tm_source) in
  let g = ok_or_fail (Pattern.match_function (Dsl.lower kernel)) in
  match Graph.tasks g with
  | [ (_, t) ] ->
      check bool "L1" true
        (t.Abstract_task.red_op = Abstract_task.Ro_sum_abs);
      check bool "argmin fused" true
        (Abstract_task.equal_digital_op t.Abstract_task.digital_op
           Abstract_task.Do_min);
      check int "iterations" 64 t.Abstract_task.loop_iterations
  | _ -> fail "one task expected"

let test_sexp_equals_embedded_dsl () =
  (* the textual and embedded frontends must produce the same IR *)
  let from_sexp =
    ok_or_fail (Pattern.match_function (Dsl.lower (ok_or_fail (Sexp.parse tm_source))))
  in
  let embedded =
    Dsl.kernel ~name:"tm"
      ~decls:
        [
          Dsl.matrix "W" ~rows:64 ~cols:256;
          Dsl.vector "x" ~len:256;
          Dsl.out_vector "out" ~len:64;
        ]
      [ Dsl.for_store ~iterations:64 ~out:"out" (Dsl.l1_distance "W" "x");
        Dsl.argmin "out" ]
  in
  let from_dsl = ok_or_fail (Pattern.match_function (Dsl.lower embedded)) in
  match (Graph.tasks from_sexp, Graph.tasks from_dsl) with
  | [ (_, a) ], [ (_, b) ] ->
      check bool "identical AbstractTask" true (a = b)
  | _ -> fail "one task each expected"

let test_parse_multilayer () =
  let src =
    "(kernel mlp (vector x 16) (matrix W0 8 16) (output h 8)\n\
     (matrix W1 4 8) (output y 4)\n\
     (for 8 h (sigmoid (dot W0 x)))\n\
     (for 4 y (relu (dot W1 h))))"
  in
  let g =
    ok_or_fail
      (Pattern.match_function (Dsl.lower (ok_or_fail (Sexp.parse src))))
  in
  check int "two tasks" 2 (Graph.n_tasks g);
  check bool "pipeline" true (Graph.For_tests.is_linear_pipeline g)

let test_parse_reductions () =
  let src =
    "(kernel stats (matrix U 2 64) (matrix V 2 64) (vector Vv 128)\n\
     (mean U) (mean-square U) (mean-product U Vv))"
  in
  let g =
    ok_or_fail
      (Pattern.match_function (Dsl.lower (ok_or_fail (Sexp.parse src))))
  in
  check int "three tasks" 3 (Graph.n_tasks g)

let test_parse_threshold_and_countdown () =
  let src =
    "(kernel k (matrix W 4 8) (vector x 8) (output o 4)\n\
     (for-down 4 o (threshold 0.25 (dot W x))))"
  in
  let g =
    ok_or_fail
      (Pattern.match_function (Dsl.lower (ok_or_fail (Sexp.parse src))))
  in
  match Graph.tasks g with
  | [ (_, t) ] ->
      check bool "threshold op" true
        (Abstract_task.equal_digital_op t.Abstract_task.digital_op
           Abstract_task.Do_threshold);
      check (Alcotest.float 1e-9) "threshold value" 0.25
        t.Abstract_task.threshold;
      check int "countdown canonicalized" 4 t.Abstract_task.loop_iterations
  | _ -> fail "one task expected"

let test_parse_vexpr_forms () =
  let src =
    "(kernel k (matrix W 4 8) (vector x 8) (output o 4)\n\
     (for 4 o (sum (vsquare (vsub (row W) (xvec x))))))"
  in
  let g =
    ok_or_fail
      (Pattern.match_function (Dsl.lower (ok_or_fail (Sexp.parse src))))
  in
  match Graph.tasks g with
  | [ (_, t) ] ->
      check bool "L2 via explicit vexprs" true
        (t.Abstract_task.red_op = Abstract_task.Ro_sum_square)
  | _ -> fail "one task expected"

(* ------------------------------------------------------------------ *)
(* Error paths                                                         *)
(* ------------------------------------------------------------------ *)

let expect_error src what =
  match Sexp.parse src with
  | Error _ -> ()
  | Ok _ -> fail (what ^ " must be rejected")

let test_parse_errors () =
  expect_error "" "empty input";
  expect_error "(module x)" "non-kernel top form";
  expect_error "(kernel k)" "kernel without statements";
  expect_error "(kernel k (matrix W x 2) (for 1 o (dot W x)))"
    "non-integer dimension";
  expect_error "(kernel k (matrix W 2 2) (for 1 o (fft W)))"
    "unknown expression";
  expect_error "(kernel k (for one o (dot W x)))" "non-integer trip count"

let test_undeclared_array_fails_at_lowering () =
  let k = ok_or_fail (Sexp.parse "(kernel k (for 1 o (dot W x)))") in
  match Dsl.lower k with
  | exception Invalid_argument _ -> ()
  | _ -> fail "undeclared arrays must fail at lowering"

let test_example_kernel_files () =
  List.iter
    (fun path ->
      match Sexp.parse_file path with
      | Ok kernel -> (
          match Pattern.match_function (Dsl.lower kernel) with
          | Ok _ -> ()
          | Error msg -> fail (path ^ ": " ^ msg))
      | Error msg -> fail (path ^ ": " ^ msg))
    [
      "../examples/kernels/template_matching.sexp";
      "../examples/kernels/svm.sexp";
      "../examples/kernels/mlp.sexp";
      "../examples/kernels/linreg.sexp";
    ]

let suite =
  [
    ("reader atoms and lists", `Quick, test_reader_atoms_and_lists);
    ("reader comments", `Quick, test_reader_comments);
    ("reader unbalanced", `Quick, test_reader_unbalanced);
    ("reader whitespace", `Quick, test_reader_whitespace_robust);
    ("parse template kernel", `Quick, test_parse_template_kernel);
    ("sexp == embedded DSL (§4.1)", `Quick, test_sexp_equals_embedded_dsl);
    ("parse multilayer", `Quick, test_parse_multilayer);
    ("parse reductions", `Quick, test_parse_reductions);
    ("parse threshold/countdown", `Quick, test_parse_threshold_and_countdown);
    ("parse explicit vexprs", `Quick, test_parse_vexpr_forms);
    ("parse errors", `Quick, test_parse_errors);
    ("undeclared arrays", `Quick, test_undeclared_array_fails_at_lowering);
    ("example kernel files", `Quick, test_example_kernel_files);
  ]

let () = Alcotest.run "promise-frontend" [ ("frontend", suite) ]
