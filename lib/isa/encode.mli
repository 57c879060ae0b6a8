(** Bit-exact binary encoding of PROMISE Tasks (paper Fig. 5(a)).

    A Task occupies 48 bits, laid out MSB-first as:
    {v
      [47:20] OP_PARAM   (28 bits)
      [19:13] RPT_NUM    (7 bits)
      [12:11] MULTI_BANK (2 bits)
      [10:8]  Class-1    (3 bits)
      [7:4]   Class-2    (4 bits)
      [3]     Class-3    (1 bit)
      [2:0]   Class-4    (3 bits)
    v}
    Programs are serialized as consecutive 6-byte big-endian words. *)

(** [program_to_bytes tasks] concatenates the encodings of [tasks]. *)
val program_to_bytes : Task.t list -> bytes

(** [program_of_bytes b] decodes a whole binary program; [Error] carries the
    index of the first undecodable task. *)
val program_of_bytes : bytes -> (Task.t list, string) result

(** [hex_of_task t] is the 12-hex-digit rendering of [to_int t]. *)
val hex_of_task : Task.t -> string

(** [task_of_hex s] parses the output of {!hex_of_task}. *)
val task_of_hex : string -> (Task.t, string) result

(** {2 Test hooks} *)

module For_tests : sig
  (** [to_int t] packs a validated task into the low 48 bits of an int.
      Raises [Invalid_argument] when [Task.validate] rejects [t]. *)
  val to_int : Task.t -> int

  (** [of_int bits] decodes the low 48 bits; [Error] on reserved opcodes or
      an illegal composition. *)
  val of_int : int -> (Task.t, string) result

  (** [to_bytes t] is the 6-byte big-endian encoding of [t]. *)
  val to_bytes : Task.t -> bytes

  (** [of_bytes b ~pos] decodes 6 bytes at [pos]. *)
  val of_bytes : bytes -> pos:int -> (Task.t, string) result
end
