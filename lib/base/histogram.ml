(* 64 linear sub-buckets per power of two (HDR-style): values below 64
   get exact integer buckets; above, a value with top bit m lands in
   sub-bucket [n lsr (m - 5)] of [32, 64), so the bucket width is
   2^(m-5) — at most 1/32 of the value.  62-bit ints need
   64 + 57 * 32 = 1888 buckets; the array is fixed at creation. *)

let n_buckets = 1920

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable maxv : int;
}

let create () =
  { counts = Array.make n_buckets 0; total = 0; sum = 0.0; maxv = 0 }

let msb n =
  let r = ref 0 and v = ref n in
  while !v > 1 do
    incr r;
    v := !v lsr 1
  done;
  !r

let index_of n =
  if n < 64 then n
  else
    let m = msb n in
    let sub = n lsr (m - 5) in
    64 + ((m - 6) * 32) + (sub - 32)

(* Upper bound of bucket [idx] — the value [percentile] reports. *)
let bound_of idx =
  if idx < 64 then idx
  else
    let m = 6 + ((idx - 64) / 32) in
    let sub = 32 + ((idx - 64) mod 32) in
    ((sub + 1) lsl (m - 5)) - 1

let add t v =
  let n = max 0 (Float.to_int v) in
  t.counts.(index_of n) <- t.counts.(index_of n) + 1;
  if n > t.maxv then t.maxv <- n;
  t.total <- t.total + 1;
  t.sum <- t.sum +. float_of_int n

let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let max_value t = float_of_int t.maxv

let percentile t q =
  if t.total = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let acc = ref 0 and idx = ref 0 and found = ref (-1) in
    while !found < 0 && !idx < n_buckets do
      acc := !acc + t.counts.(!idx);
      if !acc >= rank then found := !idx;
      incr idx
    done;
    float_of_int (bound_of (max 0 !found))
  end

let buckets t =
  let acc = ref [] in
  for idx = n_buckets - 1 downto 0 do
    if t.counts.(idx) > 0 then
      acc := (float_of_int (bound_of idx), t.counts.(idx)) :: !acc
  done;
  !acc
