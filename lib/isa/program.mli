(** A PROMISE program: an ordered sequence of Tasks plus metadata.

    Tasks execute in order; loops {e around} tasks run on the host
    (paper §4.2), so a program is a straight line of Tasks. *)

type t = { name : string; tasks : Task.t list }

(** [make ~name tasks] validates every task. Raises [Invalid_argument]
    with the failing task index on error. *)
val make : name:string -> Task.t list -> t

val length : t -> int

(** Maximum number of banks used by any task. *)
val max_banks : t -> int

(** Serialize via {!Asm.print_program}. *)
val to_asm : t -> string

(** Parse via {!Asm.parse_program}. *)
val of_asm : name:string -> string -> (t, string) result

(** Serialize via {!Encode.program_to_bytes}. *)
val to_binary : t -> bytes

(** {2 Test hooks} *)

module For_tests : sig
  val equal : t -> t -> bool

  (** Distinct swings used, ascending. *)
  val swings : t -> int list

  (** [with_swings t ss] returns a copy of [t] where task [i] uses swing
      [List.nth ss i]. Raises [Invalid_argument] on length mismatch. *)
  val with_swings : t -> int list -> t

  (** Parse via {!Encode.program_of_bytes}. *)
  val of_binary : name:string -> bytes -> (t, string) result
end
