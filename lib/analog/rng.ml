(* Splitmix64 streams. The representation is chosen for the simulator's
   hot loops (one gaussian per lane per iteration), not for elegance:

   - [state] lives in a 1-element Int64 Bigarray: loads and stores are
     unboxed with no write barrier. A [mutable state : int64] record
     field would allocate a boxed Int64 (plus caml_modify) on every
     draw — without flambda that dominates the draw cost.
   - the Box-Muller cache is a 1-element float array plus a flag: float
     array stores are unboxed, while a [float option] field would
     allocate a [Some] box every second draw.

   The value sequences are identical to the straightforward
   implementation — representation only, never arithmetic. *)

type t = {
  state : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  cached : float array;  (* length 1: the spare Box-Muller gaussian *)
  mutable has_cached : bool;
}

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let state = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  Bigarray.Array1.unsafe_set state 0 s;
  { state; cached = [| 0.0 |]; has_cached = false }

let create seed = of_state (Int64.of_int seed)

(* splitmix64 finalizer (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  let s = Int64.add (Bigarray.Array1.unsafe_get t.state 0) golden_gamma in
  Bigarray.Array1.unsafe_set t.state 0 s;
  mix s

let split t = of_state (bits64 t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  (* ascending loop, not Array.init: each split advances [t], and
     Array.init's evaluation order is unspecified *)
  let streams = Array.make n t in
  for i = 0 to n - 1 do
    streams.(i) <- split t
  done;
  streams

let copy t =
  let c = of_state (Bigarray.Array1.unsafe_get t.state 0) in
  c.cached.(0) <- t.cached.(0);
  c.has_cached <- t.has_cached;
  c

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the conversion to a 63-bit OCaml int stays positive *)
  let mask = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  mask mod bound

let float t =
  (* 53 uniform mantissa bits. The state advance and splitmix64
     finalizer are inlined by hand (same operations, same values):
     keeping the whole Int64 chain in one function body is what lets
     the compiler leave it unboxed. *)
  let s = Int64.add (Bigarray.Array1.unsafe_get t.state 0) golden_gamma in
  Bigarray.Array1.unsafe_set t.state 0 s;
  let z =
    Int64.mul
      (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11)
  *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let gaussian t =
  if t.has_cached then begin
    t.has_cached <- false;
    t.cached.(0)
  end
  else begin
    let rec draw () =
      let u = float t in
      if u <= 1e-300 then draw () else u
    in
    let u1 = draw () in
    let u2 = float t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.cached.(0) <- r *. sin theta;
    t.has_cached <- true;
    r *. cos theta
  end

let gaussian_scaled t ~mu ~sigma = mu +. (sigma *. gaussian t)

(* Rejection fallback for [gaussian_fill_ba]'s first uniform; reached with
   probability ~1e-300 per pair, so it may allocate freely. *)
let rec reject_small t =
  let u = float t in
  if u > 1e-300 then u else reject_small t

(* The pair loop behind [gaussian_fill_ba], into a float64 bigarray —
   the batched kernels' noise plane, which can be shared and sliced
   without the float-array bounds of the minor heap. A module-level
   tail-recursive function on an int index, rather than a [while] over a
   [ref], so one call allocates nothing at all: the counter stays in a
   register and the uniform draws inline the [float] chain (same
   operations, same values) instead of paying a boxed return per draw. *)
let rec fill_pairs_ba t (dst : ba) n i =
  if i < n then begin
    let s = Int64.add (Bigarray.Array1.unsafe_get t.state 0) golden_gamma in
    Bigarray.Array1.unsafe_set t.state 0 s;
    let z =
      Int64.mul
        (Int64.logxor s (Int64.shift_right_logical s 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u =
      Int64.to_float (Int64.shift_right_logical z 11)
      *. (1.0 /. 9007199254740992.0)
    in
    let u1 = if u > 1e-300 then u else reject_small t in
    let s = Int64.add (Bigarray.Array1.unsafe_get t.state 0) golden_gamma in
    Bigarray.Array1.unsafe_set t.state 0 s;
    let z =
      Int64.mul
        (Int64.logxor s (Int64.shift_right_logical s 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u2 =
      Int64.to_float (Int64.shift_right_logical z 11)
      *. (1.0 /. 9007199254740992.0)
    in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    Bigarray.Array1.unsafe_set dst i (r *. cos theta);
    if i + 1 < n then begin
      Bigarray.Array1.unsafe_set dst (i + 1) (r *. sin theta);
      fill_pairs_ba t dst n (i + 2)
    end
    else begin
      t.cached.(0) <- r *. sin theta;
      t.has_cached <- true
    end
  end

let gaussian_fill_ba t dst ~len =
  if len < 0 || len > Bigarray.Array1.dim dst then
    invalid_arg "Rng.gaussian_fill_ba: len out of range";
  if len > 0 then
    if t.has_cached then begin
      t.has_cached <- false;
      Bigarray.Array1.unsafe_set dst 0 t.cached.(0);
      fill_pairs_ba t dst len 1
    end
    else fill_pairs_ba t dst len 0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module For_tests = struct
  let split = split
  let copy = copy
  let bits64 = bits64
end
