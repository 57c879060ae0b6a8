(** The SWING knob: bit-line voltage swing per LSB (paper §3.3, §4.4).

    SWING codes 0..7 select ΔV_BL from 5 mV/LSB (code 0) up to 30 mV/LSB
    (code 7). A larger swing costs more energy but shrinks the relative
    aREAD noise factor f(SWING), which the paper reports ranging over
    0.08 (max swing) .. 0.75 (min swing), inversely monotone in the code. *)

val max_code : int
val all_codes : int list

(** [mv_per_lsb code] — ΔV_BL in mV/LSB: 5 mV at code 0, 30 mV at code 7,
    linear in the code. Raises [Invalid_argument] outside 0..7. *)
val mv_per_lsb : int -> float

(** [noise_factor code] — f(SWING): 0.75 at code 0 down to 0.08 at code 7,
    geometrically interpolated (see DESIGN.md) so it is strictly
    decreasing in the code. *)
val noise_factor : int -> float

(** [read_energy_scale code] — fraction of the maximum-swing Class-1
    energy consumed at [code]. Half of the Class-1 energy (precharge,
    WL drivers) is swing-independent, the other half scales with ΔV_BL:
    [0.5 +. 0.5 *. mv_per_lsb code /. 30.]. *)
val read_energy_scale : int -> float

(** {2 Test hooks} *)

module For_tests : sig
  (** [of_mv mv] — smallest code whose swing is at least [mv] mV/LSB, or
      [max_code] when none reaches it. *)
  val of_mv : float -> int

  val validate : int -> (int, string) result
end
