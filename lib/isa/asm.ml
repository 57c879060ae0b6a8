let print_task (t : Task.t) =
  let p = t.op_param in
  let class2 =
    Opcode.asd_name t.class2.asd ^ if t.class2.avd then ".avd" else ""
  in
  Printf.sprintf
    "task c1=%s c2=%s c3=%s c4=%s rpt=%d mb=%d swing=%d acc=%d w=%d x1=%d \
     x2=%d xprd=%d des=%s thres=%d"
    (Opcode.class1_name t.class1)
    class2
    (Opcode.class3_name t.class3)
    (Opcode.class4_name t.class4)
    t.rpt_num t.multi_bank p.swing p.acc_num p.w_addr p.x_addr1 p.x_addr2
    p.x_prd
    (Opcode.destination_name p.des)
    p.thres_val

let print_program tasks = String.concat "\n" (List.map print_task tasks) ^ "\n"

let ( let* ) = Result.bind

let parse_int key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %s: invalid integer %S" key v)

let parse_class2 v =
  let asd_str, avd =
    match String.index_opt v '.' with
    | Some i ->
        let suffix = String.sub v (i + 1) (String.length v - i - 1) in
        (String.sub v 0 i, String.equal suffix "avd")
    | None -> (v, false)
  in
  match Opcode.asd_of_name asd_str with
  | Some asd -> Ok { Opcode.asd; avd }
  | None -> Error (Printf.sprintf "field c2: unknown aSD op %S" v)

let parse_named name of_name v =
  match of_name v with
  | Some op -> Ok op
  | None -> Error (Printf.sprintf "field %s: unknown mnemonic %S" name v)

let split_fields line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> not (String.equal s ""))

module Diag = Promise_core.Diag

(* Syntax-only parse: field splitting, mnemonic lookup, integers. Task
   legality (ranges, class composition) is Task.validate's job. *)
let parse_fields line =
  match split_fields line with
  | [] -> Error "empty task line"
  | keyword :: fields when String.equal keyword "task" ->
      let parse_field acc field =
        let* t = acc in
        let* key, value =
          match String.index_opt field '=' with
          | Some i ->
              Ok
                ( String.sub field 0 i,
                  String.sub field (i + 1) (String.length field - i - 1) )
          | None -> Error (Printf.sprintf "malformed field %S" field)
        in
        let set_param f =
          let* v = f in
          Ok { t with Task.op_param = v }
        in
        let p = t.Task.op_param in
        match key with
        | "c1" ->
            let* c = parse_named "c1" Opcode.class1_of_name value in
            Ok { t with Task.class1 = c }
        | "c2" ->
            let* c = parse_class2 value in
            Ok { t with Task.class2 = c }
        | "c3" ->
            let* c = parse_named "c3" Opcode.class3_of_name value in
            Ok { t with Task.class3 = c }
        | "c4" ->
            let* c = parse_named "c4" Opcode.class4_of_name value in
            Ok { t with Task.class4 = c }
        | "rpt" ->
            let* n = parse_int key value in
            Ok { t with Task.rpt_num = n }
        | "mb" ->
            let* n = parse_int key value in
            Ok { t with Task.multi_bank = n }
        | "swing" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.swing = n })
        | "acc" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.acc_num = n })
        | "w" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.w_addr = n })
        | "x1" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.x_addr1 = n })
        | "x2" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.x_addr2 = n })
        | "xprd" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.x_prd = n })
        | "des" ->
            set_param
              (let* d = parse_named "des" Opcode.destination_of_name value in
               Ok { p with Op_param.des = d })
        | "thres" ->
            set_param
              (let* n = parse_int key value in
               Ok { p with Op_param.thres_val = n })
        | _ -> Error (Printf.sprintf "unknown field %S" key)
      in
      List.fold_left parse_field (Ok Task.nop) fields
  | keyword :: _ -> Error (Printf.sprintf "expected 'task', got %S" keyword)

let parse_task line =
  match parse_fields line with
  | Error msg -> Error (Diag.make ~code:"P-ASM-001" msg)
  | Ok t -> Task.validate t

let strip_comment line =
  let cut i = String.sub line 0 i in
  match (String.index_opt line '#', String.index_opt line ';') with
  | Some i, Some j -> cut (min i j)
  | Some i, None | None, Some i -> cut i
  | None, None -> line

(* Join backslash-continued lines, preserving the line number of the first
   physical line of each logical line for error reporting. *)
let logical_lines src =
  let physical = String.split_on_char '\n' src in
  let rec join lineno acc pending = function
    | [] -> (
        match pending with
        | Some (n, s) -> List.rev ((n, s) :: acc)
        | None -> List.rev acc)
    | line :: rest ->
        let line = strip_comment line in
        let trimmed = String.trim line in
        let continues =
          String.length trimmed > 0
          && trimmed.[String.length trimmed - 1] = '\\'
        in
        let body =
          if continues then String.sub trimmed 0 (String.length trimmed - 1)
          else trimmed
        in
        let n0, prefix =
          match pending with Some (n, s) -> (n, s ^ " ") | None -> (lineno, "")
        in
        let joined = prefix ^ body in
        if continues then join (lineno + 1) acc (Some (n0, joined)) rest
        else join (lineno + 1) ((n0, joined) :: acc) None rest
  in
  join 1 [] None physical

let parse_program_located src =
  let lines = logical_lines src in
  let parse_line acc (lineno, line) =
    let* tasks = acc in
    if String.equal (String.trim line) "" then Ok tasks
    else
      match parse_task line with
      | Ok t -> Ok ((lineno, t) :: tasks)
      | Error d -> Error (Diag.with_span d (Diag.Line lineno))
  in
  let* located = List.fold_left parse_line (Ok []) lines in
  Ok (List.rev located)

let parse_program src =
  match parse_program_located src with
  | Ok located -> Ok (List.map snd located)
  | Error d ->
      let lineno = match Diag.span d with Diag.Line n -> n | _ -> 0 in
      Error (Printf.sprintf "line %d: %s" lineno (Diag.render d))

module For_tests = struct
  let parse_task = parse_task
end
