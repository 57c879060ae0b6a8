(** The binary pulse-width-modulated word-line scheme of compute memory
    (paper Fig. 1(b), §2.2) — the mechanism beneath aREAD.

    A B_w-bit word stored column-major has its B_w word lines asserted
    simultaneously, each for a duration proportional to the binary
    weight of its bit position (bit i drives for 2^i time units). The
    bit-line develops a voltage drop proportional to the binary-weighted
    sum of the stored bits — a digital word becomes an analog value in
    one access. The sub-ranged variant splits the 8-bit word into 4-bit
    MSB/LSB halves on neighboring columns and combines them with a 16:1
    attenuation, improving linearity [9].

    {!Bitcell_array.aread} uses the resulting ideal transfer directly;
    this module exposes the pulse-level model so tests can verify the
    equivalence and the timing budget. *)

(** Pulse schedule of one word line: asserted for [duration] units. *)
type pulse = { bit : int; weight : int; duration : int }

(** [subranged_read code8] — the sub-ranged two-column read of a signed
    8-bit code (two's complement): MSB nibble read at full weight, LSB
    nibble attenuated 16:1, recombined and re-centered. Equals
    [code8 / 128] exactly in the ideal model. *)
val subranged_read : int -> float

(** {2 Test hooks} *)

module For_tests : sig
  (** [pulses ~bits code] — the per-bit schedule for an unsigned [code]
      (0 ≤ code < 2^bits): bit i's word line drives for 2^i units when
      the bit is set, 0 otherwise. *)
  val pulses : bits:int -> int -> pulse list

  (** [bitline_drop ~bits ~mv_per_lsb code] — total ΔV_BL in mV: the sum
      of the pulse durations times the per-LSB swing. Linear in [code]. *)
  val bitline_drop : bits:int -> mv_per_lsb:float -> int -> float

  (** [max_pulse_units ~bits] — duration of the longest pulse (2^(bits-1)
      units): the component of the aREAD stage delay that scales with
      word precision. *)
  val max_pulse_units : bits:int -> int
end
