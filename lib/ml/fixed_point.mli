(** 8-bit fixed-point quantization to [-1, 1) — the data format of the
    PROMISE bit-cell array (B_w = 8, one sign bit; paper §4.4 uses
    B_W = 7 magnitude bits). *)

val bits : int
(** 8. *)

val scale : float
(** 128: value = code / 128. *)

(** [quantize v] — nearest code in [-128, 127], clamping. *)
val quantize : float -> int

(** [dequantize code]. *)
val dequantize : int -> float

(** [quantize_vec v]. *)
val quantize_vec : float array -> int array

(** [normalize_mat m] — scale a float matrix so its max |entry| becomes
    [headroom] (default 0.99), returning the scaled matrix and the
    factor [k] such that original = k × scaled. Zero matrices return
    k = 1. Quantizing the scaled matrix loses at most 1/256 per entry. *)
val normalize_mat :
  ?headroom:float -> float array array -> float array array * float

(** [quantization_step ~bits] — Δ = 2^-(bits-1), as in the Sakr bound. *)
val quantization_step : bits:int -> float

(** [quantize_to_bits v ~bits] — round [v ∈ [-1,1)] to a [bits]-bit
    fixed-point grid (used by the precision-analysis tests). *)
val quantize_to_bits : float -> bits:int -> float
