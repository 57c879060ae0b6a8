(** 8-bit fixed-point quantization to [-1, 1) — the data format of the
    PROMISE bit-cell array (B_w = 8, one sign bit; paper §4.4 uses
    B_W = 7 magnitude bits). *)

(** [quantize v] — nearest code in [-128, 127], clamping. *)
val quantize : float -> int

(** [quantize_to_bits v ~bits] — round [v ∈ [-1,1)] to a [bits]-bit
    fixed-point grid (used by the precision-analysis tests). *)
val quantize_to_bits : float -> bits:int -> float
