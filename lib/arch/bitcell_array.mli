(** The 512×256 6T bit-cell array of one bank (paper §2.2, §3.1).

    Words are stored {e column-major}: an 8-bit word occupies 4 consecutive
    rows (one word row) in a pair of neighboring columns holding the 4-bit
    MSB and 4-bit LSB halves (sub-ranged read, [9]). One word row therefore
    holds a 128-element vector, and asserting its 4 word lines with binary
    PWM durations reads the whole vector out as analog bit-line drops in a
    single access (S1, aREAD).

    Word values are 8-bit two's-complement codes in [-128, 127],
    representing normalized reals [code / 128 ∈ [-1, 1)]. *)

type t

val create : unit -> t

(** [write t ~word_row values] — digital write of up to {!Params.lanes}
    codes into [word_row]; missing lanes are zeroed, and {!epoch} moves.
    Raises [Invalid_argument] on bad address or out-of-range codes (the
    array and its epoch are then unchanged). *)
val write : t -> word_row:int -> int array -> unit

(** [epoch t] — the number of {!write}s [t] has taken. {!write} is the
    only way to change stored codes, so an unchanged epoch proves the
    array still holds exactly what it held when the epoch was read. The
    runtime's sessions keep weights resident on that proof. *)
val epoch : t -> int

(** [read t ~word_row] — digital read of the 128 stored codes. *)
val read : t -> word_row:int -> int array

(** [aread t ~word_row ~swing ~noise ~lut] — analog read: each code is
    converted to its normalized value, passed through the deterministic
    transfer curve [lut] and perturbed by the spatial random error model
    at [swing]. *)
val aread :
  t ->
  word_row:int ->
  swing:int ->
  noise:Promise_analog.Noise.t ->
  lut:Promise_analog.Lut.t ->
  float array

(** [row_unsafe t ~word_row] — the live storage row itself, NOT a copy:
    the caller must treat it as read-only and must not hold it across a
    {!write}. This is the zero-allocation read the fused iteration
    kernels ({!Kernel}) are built on; everything else should use
    {!read}. *)
val row_unsafe : t -> word_row:int -> int array

(** {2 Test hooks} *)

module For_tests : sig
  (** [read_lane t ~word_row ~lane] — one stored code. *)
  val read_lane : t -> word_row:int -> lane:int -> int

  (** [msb_lsb_view t ~word_row ~lane] — the (msb, lsb) 4-bit halves the
      sub-ranged layout stores for a lane, for layout-level tests.
      The 8-bit unsigned pattern is [msb * 16 + lsb]. *)
  val msb_lsb_view : t -> word_row:int -> lane:int -> int * int

  (** [quantize v] — nearest 8-bit code for [v], clamped to [[-1, 1)];
      delegates to {!Promise_core.Quant.quantize8}, the one quantizer
      shared by every storage path. *)
  val quantize : float -> int
end
