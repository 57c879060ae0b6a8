module Diag = Promise_core.Diag

type report = { target : string; diags : Diag.t list }

(* Structurally identical diagnostics collapse: the passes overlap on
   purpose (e.g. a dwell hazard seen by both the benchmark and file
   paths of one run), and byte-reproducible output for cram and
   baseline diffs demands one copy in one stable position. Sort first
   (span, then code, then severity), then drop adjacent duplicates. *)
let dedupe ds =
  let rec go = function
    | a :: b :: rest when a = b -> go (b :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go (Diag.sort ds)

let make ~target diags = { target; diags = dedupe diags }

(* ---- Pass lists ----

   Which passes run on which input is decided here once: promise-lint,
   every --lint flag and the compiler's fail-closed gates all run these
   lists. *)

let ssa_passes ssa =
  Ssa_check.validate ssa @ Liveness.check ssa @ Regpressure.check_function ssa

let dataflow_passes ?adc_units tasks =
  Liveness.check_program tasks @ Timing_check.check_program ?adc_units tasks

let task_passes ?adc_units tasks =
  Isa_check.check_program tasks @ dataflow_passes ?adc_units tasks

(* .pasm files: the located ISA verifier plus the dataflow passes,
   with Task-index spans relocated onto source lines. *)
let lint_pasm ?adc_units ~target src =
  match Promise_isa.Asm.parse_program_located src with
  | Error d -> make ~target [ d ]
  | Ok located ->
      let lines = Array.of_list (List.map fst located) in
      let relocate d =
        match Diag.span d with
        | Diag.Task i when i >= 0 && i < Array.length lines ->
            Diag.with_span d (Diag.Line lines.(i))
        | _ -> d
      in
      make ~target
        (Isa_check.check_program_located located
        @ List.map relocate
            (dataflow_passes ?adc_units (List.map snd located)))

let errors r = Diag.count_errors r.diags
let warnings r = Diag.count_warnings r.diags
let total_errors rs = List.fold_left (fun n r -> n + errors r) 0 rs
let total_warnings rs = List.fold_left (fun n r -> n + warnings r) 0 rs

(* Exit-code contract: 0 = clean (warnings allowed), 1 = at least one
   error-severity diagnostic, or more warnings than --max-warnings
   permits. Usage/IO failures are the CLI's 2. *)
let exit_code ?max_warnings rs =
  if total_errors rs > 0 then 1
  else
    match max_warnings with
    | Some n when total_warnings rs > n -> 1
    | _ -> 0

let summary rs =
  Printf.sprintf "%d error(s), %d warning(s) in %d target(s)" (total_errors rs)
    (total_warnings rs) (List.length rs)

(* ---- Deny promotion ---- *)

let prefixed ~prefix code =
  let np = String.length prefix in
  String.length code >= np && String.sub code 0 np = prefix

let apply_deny ~deny rs =
  if deny = [] then rs
  else
    List.map
      (fun r ->
        {
          r with
          diags =
            List.map
              (fun d ->
                if
                  Diag.severity d = Diag.Warning
                  && List.exists (fun p -> prefixed ~prefix:p (Diag.code d)) deny
                then { d with Diag.severity = Diag.Error }
                else d)
              r.diags;
        })
      rs

(* ---- Fingerprints and baselines ---- *)

(* Salted with the target so the same diagnostic in two files keeps
   two identities — a baseline entry suppresses exactly one spot. *)
let fingerprint r d = Diag.fingerprint ~salt:r.target d

let baseline_of_reports rs =
  let fps =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fingerprint r) r.diags) rs)
  in
  Printf.sprintf {|{"version":1,"fingerprints":[%s]}|}
    (String.concat "," (List.map (fun f -> "\"" ^ f ^ "\"") fps))

(* Minimal parser for exactly the object [baseline_of_reports] writes:
   scan the "fingerprints" array for its quoted strings. Tolerates
   whitespace; rejects anything without the key. *)
let parse_baseline src =
  match
    let re_key = "\"fingerprints\"" in
    let rec find_sub i =
      if i + String.length re_key > String.length src then None
      else if String.sub src i (String.length re_key) = re_key then Some i
      else find_sub (i + 1)
    in
    find_sub 0
  with
  | None -> Error "baseline file has no \"fingerprints\" key"
  | Some k -> (
      match String.index_from_opt src k '[' with
      | None -> Error "baseline file has no fingerprint array"
      | Some open_b -> (
          match String.index_from_opt src open_b ']' with
          | None -> Error "baseline file has an unterminated fingerprint array"
          | Some close_b ->
              let body = String.sub src (open_b + 1) (close_b - open_b - 1) in
              let parts = String.split_on_char '"' body in
              (* quoted strings are the even-to-odd segments *)
              let rec strings = function
                | _ :: s :: rest -> s :: strings rest
                | _ -> []
              in
              let fps =
                List.filter
                  (fun s ->
                    String.length s > 0
                    && String.for_all
                         (function
                           | '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                         s)
                  (strings parts)
              in
              Ok fps))

(* [apply_baseline] — drop every diagnostic whose fingerprint is in
   the baseline; returns the filtered reports and the suppressed
   count. Exactly fingerprinted: a new diagnostic at a new span or
   with a new message skeleton does not match. *)
let apply_baseline ~baseline rs =
  let suppressed = ref 0 in
  let rs' =
    List.map
      (fun r ->
        {
          r with
          diags =
            List.filter
              (fun d ->
                let keep = not (List.mem (fingerprint r d) baseline) in
                if not keep then incr suppressed;
                keep)
              r.diags;
        })
      rs
  in
  (rs', !suppressed)

(* ---- Renderers ---- *)

let render_text r =
  let buf = Buffer.create 256 in
  if r.diags = [] then Buffer.add_string buf (r.target ^ ": clean\n")
  else
    List.iter
      (fun d ->
        Buffer.add_string buf
          (Printf.sprintf "%s: %s\n" r.target (Diag.to_string d)))
      r.diags;
  Buffer.contents buf

let render_json rs =
  let target r =
    Printf.sprintf
      {|{"target":"%s","errors":%d,"warnings":%d,"diagnostics":%s}|}
      (Diag.json_escape r.target) (errors r) (warnings r)
      (Diag.list_to_json r.diags)
  in
  Printf.sprintf {|{"summary":{"errors":%d,"warnings":%d},"targets":[%s]}|}
    (total_errors rs) (total_warnings rs)
    (String.concat "," (List.map target rs))

(* SARIF 2.1.0, the minimal subset CI code-scanning ingests: one run,
   one result per diagnostic, rule ids collected across the report,
   fingerprints under partialFingerprints so "new since baseline"
   logic can key on the same identity promise-lint does. *)
let sarif_level d =
  match Diag.severity d with
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Info -> "note"

let render_sarif ?(tool_version = "1.0.0") rs =
  let rules =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map Diag.code r.diags) rs)
  in
  let rule_json c = Printf.sprintf {|{"id":"%s"}|} (Diag.json_escape c) in
  let result r d =
    let region =
      match Diag.span d with
      | Diag.Line n -> Printf.sprintf {|,"region":{"startLine":%d}|} n
      | _ -> ""
    in
    let logical =
      match Diag.span_to_string (Diag.span d) with
      | "" -> ""
      | s ->
          Printf.sprintf {|,"logicalLocations":[{"fullyQualifiedName":"%s"}]|}
            (Diag.json_escape s)
    in
    Printf.sprintf
      {|{"ruleId":"%s","level":"%s","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"}%s}%s}],"partialFingerprints":{"promiseLint/v1":"%s"}}|}
      (Diag.json_escape (Diag.code d))
      (sarif_level d)
      (Diag.json_escape (Diag.message d))
      (Diag.json_escape r.target)
      region logical (fingerprint r d)
  in
  let results =
    List.concat_map (fun r -> List.map (result r) r.diags) rs
  in
  Printf.sprintf
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"promise-lint","version":"%s","rules":[%s]}},"results":[%s]}]}|}
    (Diag.json_escape tool_version)
    (String.concat "," (List.map rule_json rules))
    (String.concat "," results)

module For_tests = struct
  let errors = errors
  let warnings = warnings
end
