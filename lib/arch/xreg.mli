(** X-REG: the digital vector register file of a bank (paper §3.1).

    Holds {!Params.xreg_depth} (= 8) vectors of {!Params.lanes} (= 128)
    8-bit codes. The input operand X of a Task lives here with temporal
    locality: it is constant across a Task's iterations while W streams
    from the bit-cell array. *)

type t

val create : unit -> t

(** [load t ~index codes] — fill vector [index]; short vectors are
    zero-padded. *)
val load : t -> index:int -> int array -> unit

(** [get t ~index] — the stored codes. *)
val get : t -> index:int -> int array

(** [row_unsafe t ~index] — the live lane array itself, NOT a copy:
    read-only for the caller, and staged writes ({!stage_element},
    {!load}) show through immediately — exactly the visibility the
    sequential iteration loop has. Used by the fused iteration kernels
    ({!Kernel}); everything else should use {!get}. *)
val row_unsafe : t -> index:int -> int array

(** [get_normalized t ~index] — stored codes as normalized reals
    (ideal DAC). *)
val get_normalized : t -> index:int -> float array

(** [stage_element t ~index code] — append one 8-bit code produced by a
    Class-4 op with destination X-REG; elements fill the vector lane by
    lane and wrap (so a following task can use it as its X operand). *)
val stage_element : t -> index:int -> int -> unit

(** {2 Test hooks} *)

module For_tests : sig
  (** [staged_count t ~index] — lanes written by {!stage_element} since the
      last [load]. *)
  val staged_count : t -> index:int -> int
end
