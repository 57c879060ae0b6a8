(* Order statistics over samples. Percentiles are nearest-rank (a
   reported p99 is an observed sample); quartiles follow Python's
   [statistics.quantiles(values, n=4)] ("exclusive" method), the rule
   the benchmark's run-to-run spread is judged by. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

let percentile xs q = percentile_sorted (sorted xs) q

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [quartiles xs] — (q1, q2, q3) as Python's statistics.quantiles
   computes them with n = 4; needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (nan, nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* A fixed-size uniform sample of a stream (reservoir sampling), so the
   memory a window holds does not grow with how many ops it ran — the
   benchmark reports peak memory. *)
module Reservoir = struct
  type t = { a : float array; mutable seen : int; rng : Random.State.t }

  let create ~seed capacity =
    { a = Array.make capacity 0.0; seen = 0; rng = Random.State.make [| seed |] }

  let add t v =
    let cap = Array.length t.a in
    (if t.seen < cap then t.a.(t.seen) <- v
     else
       let j = Random.State.int t.rng (t.seen + 1) in
       if j < cap then t.a.(j) <- v);
    t.seen <- t.seen + 1

  let seen t = t.seen
  let to_list t = Array.to_list (Array.sub t.a 0 (min t.seen (Array.length t.a)))
end

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
