type metric = L1 | L2

let distance = function L1 -> Linalg.l1_distance | L2 -> Linalg.l2_distance

let distances ~metric ~train x =
  Array.map (fun s -> distance metric s.Dataset.features x) train

let classify_from_distances ~k ~train dists =
  if k < 1 then invalid_arg "Knn: k must be >= 1";
  if Array.length dists <> Array.length train then
    invalid_arg "Knn: distance/train length mismatch";
  let order = Array.init (Array.length dists) (fun i -> i) in
  Array.sort (fun a b -> compare dists.(a) dists.(b)) order;
  let k = min k (Array.length order) in
  let votes = Hashtbl.create 8 in
  for rank = 0 to k - 1 do
    let label = train.(order.(rank)).Dataset.label in
    (* nearer neighbors carry an infinitesimally larger vote: tie-break *)
    let weight = 1.0 +. (1e-6 /. float_of_int (rank + 1)) in
    let current = Option.value (Hashtbl.find_opt votes label) ~default:0.0 in
    Hashtbl.replace votes label (current +. weight)
  done;
  Hashtbl.fold
    (fun label v (best_label, best_v) ->
      if v > best_v then (label, v) else (best_label, best_v))
    votes (-1, neg_infinity)
  |> fst

let classify ~metric ~k ~train x =
  classify_from_distances ~k ~train (distances ~metric ~train x)

let accuracy ~metric ~k ~train test =
  let correct =
    Array.fold_left
      (fun acc s ->
        if classify ~metric ~k ~train s.Dataset.features = s.Dataset.label then
          acc + 1
        else acc)
      0 test
  in
  float_of_int correct /. float_of_int (Array.length test)

module For_tests = struct
  let classify = classify
end
