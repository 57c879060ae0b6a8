module Rng = Promise_analog.Rng

type t = { centroids : Linalg.mat }

let assign t x =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Linalg.l2_distance c x in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    t.centroids;
  !best

let assignments t data = Array.map (assign t) data

let update ~k ~data ~assignments =
  if Array.length data = 0 then invalid_arg "Kmeans.update: empty data";
  let dim = Array.length data.(0) in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let counts = Array.make k 0 in
  Array.iteri
    (fun i x ->
      let c = assignments.(i) in
      if c < 0 || c >= k then invalid_arg "Kmeans.update: assignment out of range";
      counts.(c) <- counts.(c) + 1;
      Array.iteri (fun j v -> sums.(c).(j) <- sums.(c).(j) +. v) x)
    data;
  let empty = ref [] in
  let centroids =
    Array.mapi
      (fun c sum ->
        if counts.(c) = 0 then begin
          empty := c :: !empty;
          sum
        end
        else Linalg.scale (1.0 /. float_of_int counts.(c)) sum)
      sums
  in
  (centroids, List.rev !empty)

let farthest_point t data =
  let best = ref 0 and best_d = ref neg_infinity in
  Array.iteri
    (fun i x ->
      let d = Linalg.l2_distance t.centroids.(assign t x) x in
      if d > !best_d then begin
        best := i;
        best_d := d
      end)
    data;
  !best

let fit rng ~data ~k ~iterations =
  let n = Array.length data in
  if n = 0 then invalid_arg "Kmeans.fit: empty data";
  if k < 1 || k > n then invalid_arg "Kmeans.fit: bad k";
  (* farthest-point seeding from a random start *)
  let first = Rng.int rng n in
  let seeds = ref [ Array.copy data.(first) ] in
  for _ = 2 to k do
    let t = { centroids = Array.of_list (List.rev !seeds) } in
    let far = farthest_point t data in
    seeds := Array.copy data.(far) :: !seeds
  done;
  let model = ref { centroids = Array.of_list (List.rev !seeds) } in
  for _ = 1 to iterations do
    let a = assignments !model data in
    let centroids, empty = update ~k ~data ~assignments:a in
    List.iter
      (fun c -> centroids.(c) <- Array.copy data.(farthest_point !model data))
      empty;
    model := { centroids }
  done;
  !model

let inertia t data =
  Array.fold_left
    (fun acc x -> acc +. Linalg.l2_distance t.centroids.(assign t x) x)
    0.0 data

module For_tests = struct
  let assign = assign
end
