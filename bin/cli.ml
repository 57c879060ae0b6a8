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
