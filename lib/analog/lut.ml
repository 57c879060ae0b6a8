type t = { entries : float array }

let tabulate entries f =
  if entries < 2 then invalid_arg "Lut.of_function: need at least 2 entries";
  let step = 2.0 /. float_of_int (entries - 1) in
  { entries = Array.init entries (fun i -> f (-1.0 +. (step *. float_of_int i))) }

let of_function ?(entries = 256) f = tabulate entries f
let identity = of_function (fun x -> x)
let compressive ~alpha = of_function (fun x -> x -. (alpha *. (x ** 3.0)))

let with_offset ~offset t =
  { entries = Array.map (fun v -> v +. offset) t.entries }

(* The one interpolation rule of the model. [apply] and every
   pre-sampled fast path (the fused kernels inline this arithmetic over
   {!table}) must perform these exact operations in this exact order so
   their results are bit-identical. *)
let apply_raw entries v =
  let n = Array.length entries in
  let v = Float.min 1.0 (Float.max (-1.0) v) in
  let pos = (v +. 1.0) /. 2.0 *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then entries.(n - 1)
  else
    let frac = pos -. float_of_int i in
    ((1.0 -. frac) *. entries.(i)) +. (frac *. entries.(i + 1))

let apply t v = apply_raw t.entries v
let table t = Array.copy t.entries

let max_deviation t =
  let n = Array.length t.entries in
  let step = 2.0 /. float_of_int (n - 1) in
  let dev = ref 0.0 in
  Array.iteri
    (fun i v ->
      let x = -1.0 +. (step *. float_of_int i) in
      dev := Float.max !dev (Float.abs (v -. x)))
    t.entries;
  !dev

module Silicon = struct
  (* Per-block INL magnitudes in line with the <10% energy / <2% transfer
     deviation the paper reports against measured silicon [9]. *)
  let aread = compressive ~alpha:0.01
  let absolute = compressive ~alpha:0.015
  let square = compressive ~alpha:0.02
  let mult = compressive ~alpha:0.02
  let compare_ = with_offset ~offset:0.002 identity
end

module For_tests = struct
  let of_function = of_function
  let compressive = compressive
  let with_offset = with_offset
end
