let fail ~what ?(ctx = []) msg =
  Error.fail ~layer:"cli" ~code:Error.Invalid_operand
    ~context:(("flag", what) :: ctx)
    msg

let int_in_range ~what ~min ~max s =
  let s = String.trim s in
  match int_of_string_opt s with
  | None -> fail ~what ~ctx:[ ("value", s) ] "expected an integer"
  | Some v when v < min || v > max ->
      fail ~what
        ~ctx:[ ("value", s) ]
        (Printf.sprintf "must be in %d..%d" min max)
  | Some v -> Ok v

let non_negative_float ~what s =
  let s = String.trim s in
  match float_of_string_opt s with
  | None -> fail ~what ~ctx:[ ("value", s) ] "expected a number"
  | Some v when Float.is_nan v || v = infinity || v < 0.0 ->
      fail ~what ~ctx:[ ("value", s) ] "must be a finite number >= 0"
  | Some v -> Ok v

let enum ~what ~values s =
  let v = String.lowercase_ascii (String.trim s) in
  if List.mem v values then Ok v
  else
    fail ~what
      ~ctx:[ ("value", s) ]
      ("expected one of: " ^ String.concat ", " values)

let env_value name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> if String.trim s = "" then None else Some (String.trim s)

let env_int ~name ~min ~max =
  match env_value name with
  | None -> Ok None
  | Some s -> Result.map Option.some (int_in_range ~what:name ~min ~max s)

let env_enum ~name ~values =
  match env_value name with
  | None -> Ok None
  | Some s ->
      let v = String.lowercase_ascii s in
      if List.mem v values then Ok (Some v)
      else
        fail ~what:name
          ~ctx:[ ("value", s) ]
          ("expected one of: " ^ String.concat ", " values)

let all checks =
  List.fold_left
    (fun acc c -> match acc with Error _ -> acc | Ok () -> c)
    (Ok ()) checks
