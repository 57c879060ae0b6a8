(* ISA tests: opcodes, OP_PARAM, Task validation, binary encoding,
   assembly round trips. *)

open Promise.Isa

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Opcodes                                                             *)
(* ------------------------------------------------------------------ *)

let test_class1_code_roundtrip () =
  List.iter
    (fun op ->
      match Opcode.class1_of_code (Opcode.class1_to_code op) with
      | Some op' ->
          check bool "class1 code roundtrip" true (Opcode.equal_class1 op op')
      | None -> fail "class1 decode failed")
    Opcode.all_class1

let test_class2_code_roundtrip () =
  List.iter
    (fun op ->
      match Opcode.class2_of_code (Opcode.class2_to_code op) with
      | Some op' ->
          check bool "class2 code roundtrip" true (Opcode.equal_class2 op op')
      | None -> fail "class2 decode failed")
    Opcode.all_class2

let test_class4_code_roundtrip () =
  List.iter
    (fun op ->
      match Opcode.class4_of_code (Opcode.class4_to_code op) with
      | Some op' ->
          check bool "class4 code roundtrip" true (Opcode.equal_class4 op op')
      | None -> fail "class4 decode failed")
    Opcode.all_class4

let test_class4_reserved_code () =
  check bool "code 110 is reserved" true (Opcode.class4_of_code 0b110 = None)

let test_class1_reserved_codes () =
  check bool "110 reserved" true (Opcode.class1_of_code 0b110 = None);
  check bool "111 reserved" true (Opcode.class1_of_code 0b111 = None)

let test_name_roundtrip () =
  List.iter
    (fun op ->
      match Opcode.class1_of_name (Opcode.class1_name op) with
      | Some op' -> check bool "name roundtrip" true (Opcode.equal_class1 op op')
      | None -> fail "class1 name roundtrip failed")
    Opcode.all_class1;
  List.iter
    (fun op ->
      match Opcode.class4_of_name (Opcode.class4_name op) with
      | Some op' -> check bool "name roundtrip" true (Opcode.equal_class4 op op')
      | None -> fail "class4 name roundtrip failed")
    Opcode.all_class4

let test_paper_codes () =
  (* spot-check the Fig. 5(c) encodings *)
  check int "aREAD = 011" 0b011 (Opcode.class1_to_code Opcode.C1_aread);
  check int "aSUBT = 100" 0b100 (Opcode.class1_to_code Opcode.C1_asubt);
  check int "ReLu = 111" 0b111 (Opcode.class4_to_code Opcode.C4_relu);
  check int "sign_mult+avd = 1001"
    0b1001
    (Opcode.class2_to_code { Opcode.asd = Opcode.Asd_sign_mult; avd = true })

let test_reads_x () =
  check bool "aSUBT reads X" true (Opcode.class1_reads_x Opcode.C1_asubt);
  check bool "aREAD does not" false (Opcode.class1_reads_x Opcode.C1_aread);
  check bool "sign_mult reads X" true (Opcode.asd_reads_x Opcode.Asd_sign_mult);
  check bool "absolute does not" false (Opcode.asd_reads_x Opcode.Asd_absolute)

(* ------------------------------------------------------------------ *)
(* OP_PARAM                                                            *)
(* ------------------------------------------------------------------ *)

let test_op_param_pack_unpack () =
  let p =
    {
      Op_param.swing = 5;
      acc_num = 2;
      w_addr = 300;
      x_addr1 = 3;
      x_addr2 = 6;
      x_prd = 1;
      des = Opcode.Des_xreg;
      thres_val = 9;
    }
  in
  let p' = Op_param.of_bits (Op_param.to_bits p) in
  check bool "pack/unpack" true (Op_param.equal p p')

let test_op_param_bit_positions () =
  (* SWING occupies [27:25] *)
  let p = { Op_param.default with Op_param.swing = 7 } in
  let bits = Op_param.to_bits p in
  check int "swing bits" 0b111 ((bits lsr 25) land 0b111);
  let p = { Op_param.default with Op_param.thres_val = 0xf; swing = 0 } in
  check int "thres bits" 0xf (Op_param.to_bits p land 0xf)

let test_op_param_validation () =
  let bad = { Op_param.default with Op_param.w_addr = 512 } in
  (match Op_param.validate bad with
  | Error _ -> ()
  | Ok _ -> fail "W_ADDR 512 should be rejected");
  match Op_param.validate { Op_param.default with Op_param.swing = 8 } with
  | Error _ -> ()
  | Ok _ -> fail "SWING 8 should be rejected"

let test_x_addr_circulation () =
  let p = { Op_param.default with Op_param.x_prd = 1 } in
  (* X_PRD = 1: period 2, addresses 0 1 0 1 ... *)
  check int "iter 0" 0 (Op_param.x_addr_at p ~base:0 ~iteration:0);
  check int "iter 1" 1 (Op_param.x_addr_at p ~base:0 ~iteration:1);
  check int "iter 2" 0 (Op_param.x_addr_at p ~base:0 ~iteration:2);
  let p0 = { Op_param.default with Op_param.x_prd = 0 } in
  check int "period 1 stays" 0 (Op_param.x_addr_at p0 ~base:0 ~iteration:17)

let qcheck_op_param_roundtrip =
  QCheck.Test.make ~name:"op_param bits roundtrip" ~count:500
    (QCheck.make
       (QCheck.Gen.map
          (fun (swing, acc_num, w_addr, (x1, x2, xprd, thres)) ->
            {
              Op_param.swing;
              acc_num;
              w_addr;
              x_addr1 = x1;
              x_addr2 = x2;
              x_prd = xprd;
              des = Opcode.Des_acc;
              thres_val = thres;
            })
          (QCheck.Gen.quad (QCheck.Gen.int_bound 7) (QCheck.Gen.int_bound 3)
             (QCheck.Gen.int_bound 511)
             (QCheck.Gen.quad (QCheck.Gen.int_bound 7) (QCheck.Gen.int_bound 7)
                (QCheck.Gen.int_bound 3) (QCheck.Gen.int_bound 15)))))
    (fun p -> Op_param.equal p (Op_param.of_bits (Op_param.to_bits p)))

(* ------------------------------------------------------------------ *)
(* Task validation                                                     *)
(* ------------------------------------------------------------------ *)

let dot_task ?(rpt_num = 0) ?(multi_bank = 0) () =
  Task.make ~rpt_num ~multi_bank ~class1:Opcode.C1_aread
    ~class2:{ Opcode.asd = Opcode.Asd_sign_mult; avd = true }
    ~class3:Opcode.C3_adc ~class4:Opcode.C4_accumulate ()

let test_valid_dot_task () =
  let t = dot_task () in
  check int "1 iteration" 1 (Task.iterations t);
  check int "1 bank" 1 (Task.banks t)

let test_template_matching_task () =
  (* the paper's §3.4 example: aSUBT + absolute.avd + ADC + min,
     RPT_NUM = 126, 4 banks *)
  let t =
    Task.make ~rpt_num:126 ~multi_bank:2 ~class1:Opcode.C1_asubt
      ~class2:{ Opcode.asd = Opcode.Asd_absolute; avd = true }
      ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ()
  in
  check int "127 candidates" 127 (Task.iterations t);
  check int "4 banks" 4 (Task.banks t)

let test_invalid_mult_after_fused () =
  match
    Task.validate
      {
        Task.nop with
        Task.class1 = Opcode.C1_asubt;
        class2 = { Opcode.asd = Opcode.Asd_sign_mult; avd = true };
        class3 = Opcode.C3_adc;
      }
  with
  | Error _ -> ()
  | Ok _ -> fail "multiply after fused subtract must be rejected"

let test_invalid_avd_without_adc () =
  match
    Task.validate
      {
        Task.nop with
        Task.class1 = Opcode.C1_aread;
        class2 = { Opcode.asd = Opcode.Asd_none; avd = true };
        class3 = Opcode.C3_none;
      }
  with
  | Error _ -> ()
  | Ok _ -> fail "aggregation without ADC must be rejected"

let test_invalid_asd_on_digital_read () =
  match
    Task.validate
      {
        Task.nop with
        Task.class1 = Opcode.C1_read;
        class2 = { Opcode.asd = Opcode.Asd_square; avd = false };
      }
  with
  | Error _ -> ()
  | Ok _ -> fail "aSD on a digital read must be rejected"

let test_invalid_rpt_num () =
  match Task.validate { (dot_task ()) with Task.rpt_num = 128 } with
  | Error _ -> ()
  | Ok _ -> fail "RPT_NUM 128 must be rejected"

let test_composition_count () =
  (* The paper claims "more than 1000 compositions" counting parameter
     settings; the opcode-level composition space must be substantial
     and every enumerated element must validate. *)
  let comps = Task.legal_compositions () in
  check bool "at least 64 opcode compositions" true (List.length comps >= 64);
  List.iter
    (fun (class1, class2, class3, class4) ->
      let t = { Task.nop with Task.class1; class2; class3; class4 } in
      match Task.validate t with
      | Ok _ -> ()
      | Error d ->
          fail
            ("enumerated composition rejected: " ^ Promise_core.Diag.render d))
    comps

(* ------------------------------------------------------------------ *)
(* Binary encoding                                                     *)
(* ------------------------------------------------------------------ *)

let test_encode_roundtrip_examples () =
  let tasks =
    [
      dot_task ();
      dot_task ~rpt_num:127 ~multi_bank:3 ();
      Task.make ~rpt_num:126 ~multi_bank:2 ~class1:Opcode.C1_asubt
        ~class2:{ Opcode.asd = Opcode.Asd_absolute; avd = true }
        ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ();
      Task.nop;
    ]
  in
  List.iter
    (fun t ->
      match Encode.For_tests.of_int (Encode.For_tests.to_int t) with
      | Ok t' -> check bool "binary roundtrip" true (Task.equal t t')
      | Error msg -> fail msg)
    tasks

let test_encode_width () =
  let t = dot_task ~rpt_num:127 ~multi_bank:3 () in
  let bits = Encode.For_tests.to_int t in
  check bool "fits in 48 bits" true (bits < 1 lsl 48);
  check int "6 bytes" 6 (Bytes.length (Encode.For_tests.to_bytes t))

let test_encode_bytes_roundtrip () =
  let t = dot_task ~rpt_num:42 () in
  match Encode.For_tests.of_bytes (Encode.For_tests.to_bytes t) ~pos:0 with
  | Ok t' -> check bool "bytes roundtrip" true (Task.equal t t')
  | Error msg -> fail msg

let test_program_binary_roundtrip () =
  let tasks = [ dot_task (); dot_task ~rpt_num:9 (); Task.nop ] in
  match Encode.program_of_bytes (Encode.program_to_bytes tasks) with
  | Ok tasks' ->
      check int "same length" (List.length tasks) (List.length tasks');
      List.iter2
        (fun a b -> check bool "task equal" true (Task.equal a b))
        tasks tasks'
  | Error msg -> fail msg

let test_bad_binary_rejected () =
  (match Encode.program_of_bytes (Bytes.create 5) with
  | Error _ -> ()
  | Ok _ -> fail "truncated program must be rejected");
  (* Class-1 opcode 111 is reserved *)
  match Encode.For_tests.of_int (0b111 lsl 8) with
  | Error _ -> ()
  | Ok _ -> fail "reserved opcode must be rejected"

let test_hex_roundtrip () =
  let t = dot_task ~rpt_num:3 () in
  match Encode.task_of_hex (Encode.hex_of_task t) with
  | Ok t' -> check bool "hex roundtrip" true (Task.equal t t')
  | Error msg -> fail msg

let qcheck_encode_roundtrip =
  let compositions = Array.of_list (Task.legal_compositions ()) in
  let gen =
    QCheck.Gen.map
      (fun (ci, rpt_num, multi_bank, (swing, w_addr, xprd, thres)) ->
        let class1, class2, class3, class4 =
          compositions.(ci mod Array.length compositions)
        in
        {
          Task.op_param =
            {
              Op_param.default with
              Op_param.swing;
              w_addr;
              x_prd = xprd;
              thres_val = thres;
            };
          rpt_num;
          multi_bank;
          class1;
          class2;
          class3;
          class4;
        })
      (QCheck.Gen.quad QCheck.Gen.nat (QCheck.Gen.int_bound 127)
         (QCheck.Gen.int_bound 3)
         (QCheck.Gen.quad (QCheck.Gen.int_bound 7) (QCheck.Gen.int_bound 511)
            (QCheck.Gen.int_bound 3) (QCheck.Gen.int_bound 15)))
  in
  QCheck.Test.make ~name:"task encode/decode roundtrip" ~count:500
    (QCheck.make gen) (fun t ->
      match Encode.For_tests.of_int (Encode.For_tests.to_int t) with
      | Ok t' -> Task.equal t t'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let qcheck_decode_encode_identity =
  (* any 48-bit pattern either fails to decode or round-trips bit-exactly *)
  QCheck.Test.make ~name:"decode/encode identity on raw bits" ~count:2000
    (QCheck.make
       (QCheck.Gen.map
          (fun (a, b) -> ((a land 0xffffff) lsl 24) lor (b land 0xffffff))
          (QCheck.Gen.pair QCheck.Gen.nat QCheck.Gen.nat)))
    (fun bits ->
      match Encode.For_tests.of_int bits with
      | Error _ -> true
      | Ok t -> Encode.For_tests.to_int t = bits)

let qcheck_asm_parser_total =
  (* the assembler never raises on arbitrary printable junk *)
  QCheck.Test.make ~name:"asm parser is total" ~count:500
    QCheck.printable_string (fun junk ->
      match Asm.parse_program junk with Ok _ | Error _ -> true)

let test_asm_roundtrip () =
  let t =
    Task.make ~rpt_num:126 ~multi_bank:2
      ~op_param:{ Op_param.default with Op_param.swing = 3; w_addr = 17 }
      ~class1:Opcode.C1_asubt
      ~class2:{ Opcode.asd = Opcode.Asd_absolute; avd = true }
      ~class3:Opcode.C3_adc ~class4:Opcode.C4_min ()
  in
  match Asm.For_tests.parse_task (Asm.print_task t) with
  | Ok t' -> check bool "asm roundtrip" true (Task.equal t t')
  | Error d -> fail (Promise_core.Diag.to_string d)

let test_asm_defaults () =
  match Asm.For_tests.parse_task "task c1=aREAD c2=sign_mult.avd c3=ADC c4=accumulate" with
  | Ok t ->
      check int "default rpt" 0 t.Task.rpt_num;
      check int "default swing" 7 t.Task.op_param.Op_param.swing
  | Error d -> fail (Promise_core.Diag.to_string d)

let test_asm_comments_and_continuation () =
  let src =
    "# template matching\n\
     task c1=aSUBT c2=absolute.avd c3=ADC \\\n\
    \     c4=min rpt=126 mb=2 ; inline comment\n\n\
     task c1=aREAD c2=sign_mult.avd c3=ADC c4=sigmoid\n"
  in
  match Asm.parse_program src with
  | Ok tasks -> check int "two tasks" 2 (List.length tasks)
  | Error msg -> fail msg

let test_asm_errors () =
  (match Asm.For_tests.parse_task "task c1=bogus" with
  | Error _ -> ()
  | Ok _ -> fail "unknown mnemonic must fail");
  (match Asm.For_tests.parse_task "tusk c1=aREAD" with
  | Error _ -> ()
  | Ok _ -> fail "bad keyword must fail");
  match Asm.parse_program "task c1=read c2=square c3=ADC c4=min rpt=5\n" with
  | Error msg ->
      check bool "line number in error" true
        (String.length msg > 0 && msg.[0] = 'l')
  | Ok _ -> fail "illegal composition must fail with line info"

let test_program_roundtrip () =
  let p =
    Program.make ~name:"p" [ dot_task (); dot_task ~rpt_num:3 ~multi_bank:1 () ]
  in
  (match Program.of_asm ~name:"p" (Program.to_asm p) with
  | Ok p' -> check bool "program asm roundtrip" true (Program.For_tests.equal p p')
  | Error msg -> fail msg);
  match Program.For_tests.of_binary ~name:"p" (Program.to_binary p) with
  | Ok p' -> check bool "program binary roundtrip" true (Program.For_tests.equal p p')
  | Error msg -> fail msg

let test_asm_duplicate_field_last_wins () =
  match Asm.For_tests.parse_task "task c1=aREAD c2=sign_mult.avd c3=ADC c4=accumulate rpt=3 rpt=9" with
  | Ok t -> check int "last rpt wins" 9 t.Task.rpt_num
  | Error d -> fail (Promise_core.Diag.to_string d)

let test_program_helpers () =
  let p =
    Program.make ~name:"p"
      [ dot_task ~rpt_num:9 () ; dot_task ~rpt_num:4 ~multi_bank:2 () ]
  in
  check int "max banks" 4 (Program.max_banks p)

let suite =
  [
    ("class1 code roundtrip", `Quick, test_class1_code_roundtrip);
    ("class2 code roundtrip", `Quick, test_class2_code_roundtrip);
    ("class4 code roundtrip", `Quick, test_class4_code_roundtrip);
    ("class4 reserved code", `Quick, test_class4_reserved_code);
    ("class1 reserved codes", `Quick, test_class1_reserved_codes);
    ("mnemonic roundtrip", `Quick, test_name_roundtrip);
    ("paper opcode values", `Quick, test_paper_codes);
    ("operand usage predicates", `Quick, test_reads_x);
    ("op_param pack/unpack", `Quick, test_op_param_pack_unpack);
    ("op_param bit positions", `Quick, test_op_param_bit_positions);
    ("op_param validation", `Quick, test_op_param_validation);
    ("x address circulation", `Quick, test_x_addr_circulation);
    ("valid dot task", `Quick, test_valid_dot_task);
    ("template matching task (§3.4)", `Quick, test_template_matching_task);
    ("reject multiply after fused op", `Quick, test_invalid_mult_after_fused);
    ("reject aVD without ADC", `Quick, test_invalid_avd_without_adc);
    ("reject aSD on digital read", `Quick, test_invalid_asd_on_digital_read);
    ("reject RPT_NUM overflow", `Quick, test_invalid_rpt_num);
    ("legal composition enumeration", `Quick, test_composition_count);
    ("encode roundtrip examples", `Quick, test_encode_roundtrip_examples);
    ("encode width", `Quick, test_encode_width);
    ("encode bytes roundtrip", `Quick, test_encode_bytes_roundtrip);
    ("program binary roundtrip", `Quick, test_program_binary_roundtrip);
    ("bad binaries rejected", `Quick, test_bad_binary_rejected);
    ("hex roundtrip", `Quick, test_hex_roundtrip);
    ("asm roundtrip", `Quick, test_asm_roundtrip);
    ("asm defaults", `Quick, test_asm_defaults);
    ("asm comments/continuation", `Quick, test_asm_comments_and_continuation);
    ("asm errors", `Quick, test_asm_errors);
    ("program asm/binary roundtrip", `Quick, test_program_roundtrip);
    ("asm duplicate field", `Quick, test_asm_duplicate_field_last_wins);
    ("program helpers", `Quick, test_program_helpers);
    QCheck_alcotest.to_alcotest qcheck_op_param_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_encode_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decode_encode_identity;
    QCheck_alcotest.to_alcotest qcheck_asm_parser_total;
  ]

let () = Alcotest.run "promise-isa" [ ("isa", suite) ]
