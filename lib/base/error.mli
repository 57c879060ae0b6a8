(** Structured, typed errors shared across the stack.

    Every layer (machine, compiler runtime, backend, CLI tools) reports
    recoverable failures as [('a, Error.t) result] rather than raising
    [Invalid_argument]: the error names the layer it came from, a coarse
    classification usable for recovery decisions, and key/value context
    for diagnostics. Exceptions remain only for true programming
    contracts (e.g. indexing a bank that does not exist). *)

type code =
  | Invalid_operand  (** a parameter is out of its documented range *)
  | Capacity  (** the request exceeds the machine/layout resources *)
  | Unsupported  (** a legal request the implementation cannot map *)
  | Fault  (** a hardware fault surfaced (canary miss, BIST failure) *)
  | Timeout  (** a supervised work item exceeded its deadline *)
  | Retry_exhausted  (** the bounded retry/backoff budget ran out *)
  | Overloaded
      (** the service is shedding load (queue dwell over budget, or a
          circuit breaker is open); the context carries a
          [retry-after-ms] hint — retrying later is expected to work *)
  | Stale_checkpoint
      (** a checkpoint's run-configuration digest does not match the
          current run: resuming it would silently mix incompatible
          results *)
  | Internal  (** wrapped legacy string error, no finer classification *)

type t = {
  layer : string;  (** originating layer, e.g. "machine", "runtime" *)
  code : code;
  message : string;
  context : (string * string) list;  (** key/value diagnostics *)
}

(** [make ~layer ?code ?context message] — [code] defaults to
    [Internal]. *)
val make : layer:string -> ?code:code -> ?context:(string * string) list -> string -> t

(** [fail ~layer ?code ?context message] — [Error (make ...)]. *)
val fail :
  layer:string ->
  ?code:code ->
  ?context:(string * string) list ->
  string ->
  ('a, t) result

(** [of_string ~layer msg] — wrap a legacy string error ([Internal]). *)
val of_string : layer:string -> string -> t

(** [with_context t kvs] — append context pairs. *)
val with_context : t -> (string * string) list -> t

val code_name : code -> string

(** [to_string t] — ["layer: message [k=v, ...]"]. *)
val to_string : t -> string

(** [to_invalid_arg r] — unwrap, raising [Invalid_argument (to_string e)]
    on [Error e]: the bridge for callers that still want the legacy
    exception behavior. *)
val to_invalid_arg : ('a, t) result -> 'a
