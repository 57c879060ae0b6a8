(* Cmdliner converters shared by the promise-* executables: flag values
   go through the typed validators, so junk reports the same structured
   Error.t a PROMISE_* environment-variable failure does. *)

open Cmdliner

let of_validated parse s =
  match parse s with
  | Ok v -> Ok v
  | Error e -> Error (`Msg (Promise.Error.to_string e))

let validated_int ~what ~min ~max =
  Arg.conv
    ( of_validated (Promise.Validate.int_in_range ~what ~min ~max),
      Format.pp_print_int )

let validated_float_ms ~what =
  Arg.conv
    ( of_validated (Promise.Validate.non_negative_float ~what),
      fun ppf v -> Format.fprintf ppf "%g" v )

let positive_float ~what =
  Arg.conv
    ( (fun s ->
        match Promise.Validate.non_negative_float ~what s with
        | Ok v when v > 0.0 -> Ok v
        | Ok _ -> Error (`Msg (what ^ " must be > 0"))
        | Error e -> Error (`Msg (Promise.Error.to_string e))),
      Format.pp_print_float )

(* The stderr report of every --lint flag: promise-lint's text
   rendering and summary line. [Error] when the report holds an
   error-severity diagnostic. *)
let lint_report report =
  let module Lint = Promise.Analysis.Lint in
  prerr_string (Lint.render_text report);
  prerr_endline (Lint.summary [ report ]);
  if Lint.exit_code [ report ] = 0 then Ok ()
  else Error "lint reported errors (see diagnostics above)"
