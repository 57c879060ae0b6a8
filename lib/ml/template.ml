type metric = L1 | L2

let distance = function L1 -> Linalg.l1_distance | L2 -> Linalg.l2_distance

let all_distances ~metric ~candidates x =
  Array.map (fun w -> distance metric w x) candidates

let nearest ~metric ~candidates x =
  let dists = all_distances ~metric ~candidates x in
  let i = Linalg.argmin dists in
  (i, dists.(i))

let recognition_accuracy ~metric ~candidates queries =
  let correct =
    Array.fold_left
      (fun acc (q, identity) ->
        let i, _ = nearest ~metric ~candidates q in
        if i = identity then acc + 1 else acc)
      0 queries
  in
  float_of_int correct /. float_of_int (Array.length queries)

module For_tests = struct
  let nearest = nearest
end
