type code =
  | Invalid_operand
  | Capacity
  | Unsupported
  | Fault
  | Timeout
  | Retry_exhausted
  | Overloaded
  | Stale_checkpoint
  | Internal

type t = {
  layer : string;
  code : code;
  message : string;
  context : (string * string) list;
}

let make ~layer ?(code = Internal) ?(context = []) message =
  { layer; code; message; context }

let fail ~layer ?code ?context message =
  Error (make ~layer ?code ?context message)

let of_string ~layer message = make ~layer message

let with_context t kvs = { t with context = t.context @ kvs }

let code_name = function
  | Invalid_operand -> "invalid-operand"
  | Capacity -> "capacity"
  | Unsupported -> "unsupported"
  | Fault -> "fault"
  | Timeout -> "timeout"
  | Retry_exhausted -> "retry-exhausted"
  | Overloaded -> "overloaded"
  | Stale_checkpoint -> "stale-checkpoint"
  | Internal -> "internal"

let to_string t =
  let ctx =
    match t.context with
    | [] -> ""
    | kvs ->
        " ["
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ "]"
  in
  Printf.sprintf "%s: %s%s" t.layer t.message ctx

let to_invalid_arg = function
  | Ok v -> v
  | Error e -> invalid_arg (to_string e)
