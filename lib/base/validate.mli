(** Typed validation for CLI flags and [PROMISE_*] environment
    variables.

    Junk input ("abc", "1e9", an out-of-range count) becomes an
    [Error.t] with [Invalid_operand] and enough context to print a
    one-line diagnostic — never a raised [Failure] from a bare
    [int_of_string], and never a silent fallback to a default that
    hides the typo. *)

val int_in_range :
  what:string -> min:int -> max:int -> string -> (int, Error.t) result
(** [int_in_range ~what ~min ~max s] — parse [s] (trimmed) as a
    decimal integer in [[min, max]]. [what] names the flag or variable
    in the error ("--jobs", "PROMISE_BATCH"). *)

val non_negative_float : what:string -> string -> (float, Error.t) result
(** Parse a finite float [>= 0] (deadlines in milliseconds). *)

val enum :
  what:string -> values:string list -> string -> (string, Error.t) result
(** [enum ~what ~values s] — [s] (trimmed, lowercased) must be one of
    [values]. *)

val env_int :
  name:string -> min:int -> max:int -> (int option, Error.t) result
(** [env_int ~name ~min ~max] — [Ok None] when the variable is unset
    or blank, [Ok (Some v)] when it parses in range, an error
    otherwise. *)

val env_enum :
  name:string -> values:string list -> (string option, Error.t) result
(** Like {!env_int} for a closed set of (lowercased) values. *)

val all : (unit, Error.t) result list -> (unit, Error.t) result
(** First error wins; [Ok ()] when every check passes. *)
