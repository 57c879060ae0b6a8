type severity = Info | Warning | Error

type span =
  | No_span
  | Line of int
  | Task of int
  | Block of string
  | Instr of { block : string; vreg : int }
  | Node of int

type t = { code : string; severity : severity; span : span; message : string }

let make ?(severity = Error) ?(span = No_span) ~code message =
  { code; severity; span; message }

let errorf ?span ~code fmt =
  Printf.ksprintf (fun message -> make ~severity:Error ?span ~code message) fmt

let warningf ?span ~code fmt =
  Printf.ksprintf
    (fun message -> make ~severity:Warning ?span ~code message)
    fmt

let code t = t.code
let severity t = t.severity
let span t = t.span
let message t = t.message
let with_span t span = { t with span }

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let span_to_string = function
  | No_span -> ""
  | Line n -> Printf.sprintf "line %d" n
  | Task i -> Printf.sprintf "task %d" i
  | Block l -> Printf.sprintf "block %S" l
  | Instr { block; vreg } -> Printf.sprintf "%%%d in block %S" vreg block
  | Node i -> Printf.sprintf "node %d" i

(* Compact rendering for embedding in legacy string errors: the code in
   brackets, then the message; the span is the caller's concern. *)
let render t = Printf.sprintf "[%s] %s" t.code t.message

let to_string t =
  match span_to_string t.span with
  | "" -> Printf.sprintf "%s[%s] %s" (severity_name t.severity) t.code t.message
  | s ->
      Printf.sprintf "%s[%s] %s: %s" (severity_name t.severity) t.code s
        t.message

let is_error t = t.severity = Error
let count_errors ds = List.length (List.filter is_error ds)
let count_warnings ds = List.length (List.filter (fun d -> d.severity = Warning) ds)
let first_error ds = List.find_opt is_error ds

let span_order = function
  | No_span -> (0, 0, "")
  | Line n -> (1, n, "")
  | Task i -> (2, i, "")
  | Node i -> (3, i, "")
  | Block l -> (4, 0, l)
  | Instr { block; vreg } -> (4, vreg, block)

(* Stable report order: position in the program first, then code, then
   descending severity so an error precedes a warning on the same spot. *)
let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (span_order a.span) (span_order b.span) in
      if c <> 0 then c
      else
        let c = compare a.code b.code in
        if c <> 0 then c
        else compare (severity_rank b.severity) (severity_rank a.severity))
    ds

(* ---- Fingerprints ----

   A fingerprint identifies "the same diagnostic" across lint runs for
   baseline suppression: the stable code, the span, and the message
   *skeleton* (digit runs collapsed to '#', so a bound that moves from
   [0, 159] to [0, 161] keeps its identity while a different code or a
   different span does not). Hashed with the stdlib Digest (MD5) and
   truncated to 16 hex characters — collision space is per-target
   diagnostic sets, tiny. *)

let skeleton msg =
  let buf = Buffer.create (String.length msg) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          if not !in_digits then Buffer.add_char buf '#';
          in_digits := true
      | c ->
          in_digits := false;
          Buffer.add_char buf c)
    msg;
  Buffer.contents buf

let fingerprint ?(salt = "") t =
  let key =
    String.concat "\x00"
      [ salt; t.code; span_to_string t.span; skeleton t.message ]
  in
  String.sub (Digest.to_hex (Digest.string key)) 0 16

let to_error ~layer t =
  let span_ctx =
    match span_to_string t.span with "" -> [] | s -> [ ("span", s) ]
  in
  Error.make ~layer ~code:Error.Invalid_operand
    ~context:(("diag", t.code) :: span_ctx)
    t.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let span_to_json = function
  | No_span -> {|null|}
  | Line n -> Printf.sprintf {|{"kind":"line","line":%d}|} n
  | Task i -> Printf.sprintf {|{"kind":"task","index":%d}|} i
  | Block l -> Printf.sprintf {|{"kind":"block","label":"%s"}|} (json_escape l)
  | Instr { block; vreg } ->
      Printf.sprintf {|{"kind":"instr","block":"%s","vreg":%d}|}
        (json_escape block) vreg
  | Node i -> Printf.sprintf {|{"kind":"node","index":%d}|} i

let to_json t =
  Printf.sprintf {|{"code":"%s","severity":"%s","span":%s,"message":"%s"}|}
    (json_escape t.code)
    (severity_name t.severity)
    (span_to_json t.span) (json_escape t.message)

let list_to_json ds =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]"

module For_tests = struct
  let skeleton = skeleton
  let to_json = to_json
end
