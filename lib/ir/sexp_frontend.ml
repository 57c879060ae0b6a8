type sexp = Atom of string | List of sexp list

let rec pp_sexp ppf = function
  | Atom a -> Format.pp_print_string ppf a
  | List items ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_sexp)
        items

(* ------------------------------------------------------------------ *)
(* Tokenizer / reader                                                  *)
(* ------------------------------------------------------------------ *)

type token = Lparen | Rparen | Tatom of string

let tokenize src =
  let tokens = ref [] in
  let n = String.length src in
  let i = ref 0 in
  let atom_start = ref (-1) in
  let flush_atom upto =
    if !atom_start >= 0 then begin
      tokens := Tatom (String.sub src !atom_start (upto - !atom_start)) :: !tokens;
      atom_start := -1
    end
  in
  while !i < n do
    (match src.[!i] with
    | '(' ->
        flush_atom !i;
        tokens := Lparen :: !tokens
    | ')' ->
        flush_atom !i;
        tokens := Rparen :: !tokens
    | ';' ->
        flush_atom !i;
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | ' ' | '\t' | '\n' | '\r' -> flush_atom !i
    | _ -> if !atom_start < 0 then atom_start := !i);
    incr i
  done;
  flush_atom n;
  List.rev !tokens

let sexp_of_string src =
  let rec parse_list acc = function
    | [] -> Error ("unexpected end of input", [])
    | Rparen :: rest -> Ok (List.rev acc, rest)
    | Lparen :: rest -> (
        match parse_list [] rest with
        | Ok (inner, rest) -> parse_list (List inner :: acc) rest
        | Error _ as e -> e)
    | Tatom a :: rest -> parse_list (Atom a :: acc) rest
  in
  let rec parse_top acc = function
    | [] -> Ok (List.rev acc)
    | Lparen :: rest -> (
        match parse_list [] rest with
        | Ok (inner, rest) -> parse_top (List inner :: acc) rest
        | Error (msg, _) -> Error msg)
    | Rparen :: _ -> Error "unbalanced ')'"
    | Tatom a :: rest -> parse_top (Atom a :: acc) rest
  in
  parse_top [] (tokenize src)

(* ------------------------------------------------------------------ *)
(* Kernel elaboration                                                  *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let err fmt = Format.kasprintf (fun m -> Error m) fmt

let as_int ctx = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some n -> Ok n
      | None -> err "%s: expected an integer, got %S" ctx a)
  | List _ as s -> err "%s: expected an integer, got %a" ctx pp_sexp s

let as_float ctx = function
  | Atom a -> (
      match float_of_string_opt a with
      | Some f -> Ok f
      | None -> err "%s: expected a number, got %S" ctx a)
  | List _ as s -> err "%s: expected a number, got %a" ctx pp_sexp s

let as_name ctx = function
  | Atom a -> Ok a
  | List _ as s -> err "%s: expected a name, got %a" ctx pp_sexp s

let rec parse_vexpr = function
  | List [ Atom "row"; w ] ->
      let* w = as_name "row" w in
      Ok (Dsl.row w)
  | List [ Atom "xvec"; x ] ->
      let* x = as_name "xvec" x in
      Ok (Dsl.xvec x)
  | List [ Atom op; a; b ]
    when op = "vadd" || op = "vsub" || op = "vmul" ->
      let* va = parse_vexpr a in
      let* vb = parse_vexpr b in
      Ok
        ((match op with
         | "vadd" -> Dsl.vadd
         | "vsub" -> Dsl.vsub
         | _ -> Dsl.vmul)
           va vb)
  | List [ Atom op; a ] when op = "vabs" || op = "vsquare" || op = "vcompare" ->
      let* va = parse_vexpr a in
      Ok
        ((match op with
         | "vabs" -> Dsl.vabs
         | "vsquare" -> Dsl.vsquare
         | _ -> Dsl.vcompare)
           va)
  | s -> err "unknown vector expression %a" pp_sexp s

let rec parse_expr = function
  | List [ Atom "dot"; w; x ] ->
      let* w = as_name "dot" w in
      let* x = as_name "dot" x in
      Ok (Dsl.dot w x)
  | List [ Atom "l1"; w; x ] ->
      let* w = as_name "l1" w in
      let* x = as_name "l1" x in
      Ok (Dsl.l1_distance w x)
  | List [ Atom "l2"; w; x ] ->
      let* w = as_name "l2" w in
      let* x = as_name "l2" x in
      Ok (Dsl.l2_distance w x)
  | List [ Atom "sum"; v ] ->
      let* v = parse_vexpr v in
      Ok (Dsl.sum v)
  | List [ Atom "sigmoid"; e ] ->
      let* e = parse_expr e in
      Ok (Dsl.sigmoid e)
  | List [ Atom "relu"; e ] ->
      let* e = parse_expr e in
      Ok (Dsl.relu e)
  | List [ Atom "threshold"; c; e ] ->
      let* c = as_float "threshold" c in
      let* e = parse_expr e in
      Ok (Dsl.sthreshold c e)
  | s -> err "unknown scalar expression %a" pp_sexp s

let parse_form form (decls, stmts) =
  match form with
  | List [ Atom "matrix"; name; rows; cols ] ->
      let* name = as_name "matrix" name in
      let* rows = as_int "matrix rows" rows in
      let* cols = as_int "matrix cols" cols in
      Ok (Dsl.matrix name ~rows ~cols :: decls, stmts)
  | List [ Atom "vector"; name; len ] ->
      let* name = as_name "vector" name in
      let* len = as_int "vector len" len in
      Ok (Dsl.vector name ~len :: decls, stmts)
  | List [ Atom "output"; name; len ] ->
      let* name = as_name "output" name in
      let* len = as_int "output len" len in
      Ok (Dsl.out_vector name ~len :: decls, stmts)
  | List [ Atom ("for" | "for-down" as dir); iters; out; expr ] ->
      let* iterations = as_int "for" iters in
      let* out = as_name "for" out in
      let* body = parse_expr expr in
      let loop =
        if dir = "for" then Dsl.for_store else Dsl.for_store_countdown
      in
      Ok (decls, loop ~iterations ~out body :: stmts)
  | List [ Atom "argmin"; out ] ->
      let* out = as_name "argmin" out in
      Ok (decls, Dsl.argmin out :: stmts)
  | List [ Atom "argmax"; out ] ->
      let* out = as_name "argmax" out in
      Ok (decls, Dsl.argmax out :: stmts)
  | List [ Atom "mean"; w ] ->
      let* w = as_name "mean" w in
      Ok (decls, Dsl.mean w :: stmts)
  | List [ Atom "mean-square"; w ] ->
      let* w = as_name "mean-square" w in
      Ok (decls, Dsl.mean_square w :: stmts)
  | List [ Atom "mean-product"; u; v ] ->
      let* u = as_name "mean-product" u in
      let* v = as_name "mean-product" v in
      Ok (decls, Dsl.mean_product u v :: stmts)
  | s -> err "unknown kernel form %a" pp_sexp s

let parse src =
  let* top = sexp_of_string src in
  match top with
  | [ List (Atom "kernel" :: name :: forms) ] ->
      let* name = as_name "kernel" name in
      let* decls, stmts =
        List.fold_left
          (fun acc form ->
            let* acc = acc in
            parse_form form acc)
          (Ok ([], [])) forms
      in
      if stmts = [] then err "kernel %S has no statements" name
      else Ok (Dsl.kernel ~name ~decls:(List.rev decls) (List.rev stmts))
  | [ _ ] -> Error "expected (kernel NAME ...)"
  | [] -> Error "empty input"
  | _ -> Error "expected exactly one (kernel ...) form"

let parse_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      parse src

module For_tests = struct
  let sexp_of_string = sexp_of_string
  let pp_sexp = pp_sexp
end
