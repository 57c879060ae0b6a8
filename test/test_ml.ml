(* ML substrate tests: linear algebra, fixed point, synthetic datasets,
   model training (MLP, SVM, PCA), reference kernels and metrics. *)

module Ml = Promise.Ml
module Rng = Promise.Analog.Rng
open Ml

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let close eps = Alcotest.float eps

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let test_dot () =
  check (close 1e-9) "dot" 11.0 (Linalg.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  match Linalg.dot [| 1.0 |] [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "length mismatch must be rejected"

let test_distances () =
  let a = [| 1.0; -2.0 |] and b = [| -1.0; 1.0 |] in
  check (close 1e-9) "l1" 5.0 (Linalg.l1_distance a b);
  check (close 1e-9) "l2 squared" 13.0 (Linalg.l2_distance a b);
  check (close 1e-9) "self distance" 0.0 (Linalg.l1_distance a a)

let test_vector_ops () =
  check (close 1e-9) "sub" (-1.0) (Linalg.sub [| 1.0 |] [| 2.0 |]).(0);
  check (close 1e-9) "scale" 4.0 (Linalg.scale 2.0 [| 2.0 |]).(0);
  check (close 1e-9) "norm" 5.0 (Linalg.norm2 [| 3.0; 4.0 |]);
  check (close 1e-9) "mean" 2.0 (Linalg.mean [| 1.0; 2.0; 3.0 |])

let test_arg_extrema () =
  check int "argmin" 2 (Linalg.argmin [| 3.0; 2.0; 1.0; 5.0 |]);
  check int "argmax" 3 (Linalg.argmax [| 3.0; 2.0; 1.0; 5.0 |]);
  check int "first wins ties" 0 (Linalg.argmin [| 1.0; 1.0 |])

let test_mat_ops () =
  let m = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = Linalg.mat_vec m [| 1.0; 1.0 |] in
  check (close 1e-9) "row 0" 3.0 v.(0);
  check (close 1e-9) "row 1" 7.0 v.(1);
  check (close 1e-9) "max abs" 4.0 (Linalg.mat_max_abs m)

(* ------------------------------------------------------------------ *)
(* Fixed point                                                         *)
(* ------------------------------------------------------------------ *)

let test_fixed_point_roundtrip () =
  List.iter
    (fun v ->
      let err = Float.abs (Promise.Quant.dequantize8 (Fixed_point.quantize v) -. v) in
      check bool "within half lsb" true (err <= 0.5 /. 128.0 +. 1e-9))
    [ -0.99; -0.5; 0.0; 0.123; 0.7 ]

let test_fixed_point_clamps () =
  check int "high clamp" 127 (Fixed_point.quantize 2.0);
  check int "low clamp" (-128) (Fixed_point.quantize (-2.0))

let test_quantize_to_bits () =
  check (close 1e-9) "4-bit grid" 0.125 (Fixed_point.quantize_to_bits 0.1 ~bits:4);
  check bool "clamps below 1" true (Fixed_point.quantize_to_bits 0.999 ~bits:2 < 1.0)

let qcheck_fixed_roundtrip =
  QCheck.Test.make ~name:"8-bit quantization error bound" ~count:500
    (QCheck.float_range (-0.996) 0.996) (fun v ->
      Float.abs (Promise.Quant.dequantize8 (Fixed_point.quantize v) -. v)
      <= (0.5 /. 128.0) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Datasets                                                            *)
(* ------------------------------------------------------------------ *)

let test_digits_deterministic () =
  let gen () =
    Dataset.Digits.generate (Rng.create 3) ~width:8 ~height:8 ~n:20
  in
  let a = gen () and b = gen () in
  Array.iteri
    (fun i s ->
      check bool "same features" true (s.Dataset.features = b.(i).Dataset.features))
    a

let test_digits_labels_round_robin () =
  let d = Dataset.Digits.generate (Rng.create 3) ~width:8 ~height:8 ~n:25 in
  Array.iteri (fun i s -> check int "label" (i mod 10) s.Dataset.label) d

let test_digits_range () =
  let d = Dataset.Digits.generate (Rng.create 4) ~width:8 ~height:8 ~n:10 in
  Array.iter
    (fun s ->
      Array.iter
        (fun v -> check bool "in [-1,1)" true (v >= -1.0 && v < 1.0))
        s.Dataset.features)
    d

let test_digits_classes_distinguishable () =
  (* prototypes of distinct classes are far apart relative to noise *)
  let p0 = Dataset.Digits.For_tests.prototype ~cls:0 ~width:16 ~height:16 in
  let p1 = Dataset.Digits.For_tests.prototype ~cls:1 ~width:16 ~height:16 in
  check bool "classes differ" true (Linalg.l2_distance p0 p1 > 1.0)

let test_faces_identities () =
  let rng = Rng.create 5 in
  let ids = Dataset.Faces.identities rng ~width:16 ~height:16 ~n:8 in
  check int "8 identities" 8 (Array.length ids);
  (* a query is closest to its own identity *)
  let q = Dataset.Faces.query rng ~width:16 ~height:16 ids ~identity:3 in
  let d = Array.map (fun t -> Linalg.l1_distance t q) ids in
  check int "query resolves" 3 (Linalg.argmin d)

let test_faces_detection_balanced () =
  let d = Dataset.Faces.detection (Rng.create 6) ~width:16 ~height:16 ~n:40 in
  let pos = Array.fold_left (fun a s -> a + s.Dataset.label) 0 d in
  check int "balanced" 20 pos

let test_gunshot_windows () =
  let rng = Rng.create 7 in
  let template = Dataset.Gunshot.template rng ~len:128 in
  check int "template length" 128 (Array.length template);
  check bool "unit-ish peak" true (Linalg.max_abs template > 0.85);
  let w = Dataset.Gunshot.windows rng ~template ~n:30 ~snr:1.0 in
  (* positives correlate with the template much more than negatives *)
  let mean_corr label =
    let sum = ref 0.0 and count = ref 0 in
    Array.iter
      (fun s ->
        if s.Dataset.label = label then begin
          sum := !sum +. Linalg.dot template s.Dataset.features;
          incr count
        end)
      w;
    !sum /. float_of_int !count
  in
  check bool "positives correlate" true (mean_corr 1 > mean_corr 0 +. 1.0)

let test_linreg_data () =
  let u, v =
    Dataset.Linreg2d.generate (Rng.create 8) ~n:2000 ~slope:0.5 ~intercept:0.2
      ~noise:0.02
  in
  let fit = Linreg.fit u v in
  check (close 0.03) "slope recovered" 0.5 fit.Linreg.slope;
  check (close 0.03) "intercept recovered" 0.2 fit.Linreg.intercept

let test_train_test_split () =
  let d = Dataset.Digits.generate (Rng.create 9) ~width:8 ~height:8 ~n:100 in
  let train, test = Dataset.train_test_split d ~test_fraction:0.2 in
  check int "train" 80 (Array.length train);
  check int "test" 20 (Array.length test)

(* ------------------------------------------------------------------ *)
(* MLP                                                                 *)
(* ------------------------------------------------------------------ *)

let small_mlp_data () =
  Dataset.Digits.generate (Rng.create 11) ~width:8 ~height:8 ~n:300

let test_mlp_shapes () =
  let rng = Rng.create 12 in
  let m = Mlp.create rng ~sizes:[ 64; 32; 10 ] ~hidden_activation:Mlp.Sigmoid in
  let acts = Mlp.For_tests.forward m (Array.make 64 0.1) in
  check int "3 activation arrays" 3 (Array.length acts);
  check int "output width" 10 (Array.length acts.(2))

let test_mlp_training_improves () =
  let rng = Rng.create 13 in
  let data = small_mlp_data () in
  let m = Mlp.create rng ~sizes:[ 64; 24; 10 ] ~hidden_activation:Mlp.Sigmoid in
  let before = Mlp.accuracy m data in
  Mlp.train m rng ~data ~epochs:5 ~lr:0.3;
  let after = Mlp.accuracy m data in
  check bool "training improves accuracy" true (after > before +. 0.3);
  check bool "high train accuracy" true (after > 0.9)

let test_mlp_relu_trains () =
  let rng = Rng.create 14 in
  let data = small_mlp_data () in
  let m = Mlp.create rng ~sizes:[ 64; 24; 10 ] ~hidden_activation:Mlp.Relu in
  Mlp.train m rng ~data ~epochs:5 ~lr:0.05;
  check bool "relu net learns" true (Mlp.accuracy m data > 0.8)

let test_mlp_gradient_check () =
  (* finite-difference check of the training gradient on one weight *)
  let rng = Rng.create 15 in
  let m = Mlp.create rng ~sizes:[ 4; 3; 2 ] ~hidden_activation:Mlp.Sigmoid in
  let x = [| 0.3; -0.2; 0.5; 0.1 |] in
  let label = 1 in
  let loss () =
    let z = Mlp.For_tests.logits m x in
    let mx = Array.fold_left Float.max neg_infinity z in
    let logsum = mx +. log (Array.fold_left (fun a v -> a +. exp (v -. mx)) 0.0 z) in
    logsum -. z.(label)
  in
  (* numeric gradient for weight (0, 1, 2) *)
  let w = m.Mlp.layers.(0).Mlp.weights in
  let eps = 1e-5 in
  let orig = w.(1).(2) in
  w.(1).(2) <- orig +. eps;
  let lp = loss () in
  w.(1).(2) <- orig -. eps;
  let lm = loss () in
  w.(1).(2) <- orig;
  let numeric = (lp -. lm) /. (2.0 *. eps) in
  (* analytic: train with lr so that delta_w = -lr * grad *)
  let m2 = { Mlp.layers = Array.map (fun l -> { l with Mlp.weights = Array.map Array.copy l.Mlp.weights }) m.Mlp.layers } in
  let lr = 1e-3 in
  Mlp.train m2 (Rng.create 1) ~data:[| { Dataset.features = x; label } |]
    ~epochs:1 ~lr;
  let analytic = (orig -. m2.Mlp.layers.(0).Mlp.weights.(1).(2)) /. lr in
  check (close 1e-3) "gradient check" numeric analytic

let test_mlp_sakr_stats_positive () =
  let rng = Rng.create 16 in
  let data = small_mlp_data () in
  let m = Mlp.create rng ~sizes:[ 64; 16; 10 ] ~hidden_activation:Mlp.Sigmoid in
  Mlp.train m rng ~data ~epochs:3 ~lr:0.3;
  let ea, ew = Mlp.sakr_stats m (Array.sub data 0 60) in
  check bool "EA > 0" true (ea > 0.0);
  check bool "EW > 0" true (ew > 0.0)

(* ------------------------------------------------------------------ *)
(* SVM                                                                 *)
(* ------------------------------------------------------------------ *)

let test_svm_separable () =
  (* two gaussian blobs, linearly separable *)
  let rng = Rng.create 17 in
  let data =
    Array.init 200 (fun i ->
        let label = i mod 2 in
        let center = if label = 1 then 0.4 else -0.4 in
        {
          Dataset.features =
            Array.init 8 (fun _ -> Rng.gaussian_scaled rng ~mu:center ~sigma:0.15);
          label;
        })
  in
  let m = Svm.train rng ~data ~epochs:10 ~lambda:0.01 in
  check bool "separable accuracy > 0.97" true (Svm.accuracy m data > 0.97)

let test_svm_augmented_weights () =
  let m = { Svm.weights = [| 1.0; 2.0 |]; bias = 0.5 } in
  let aug = Svm.augmented_weights m in
  check int "length" 3 (Array.length aug);
  check (close 1e-9) "bias appended" 0.5 aug.(2)

(* ------------------------------------------------------------------ *)
(* PCA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pca_recovers_dominant_direction () =
  (* data spread along a known axis *)
  let rng = Rng.create 18 in
  let dir = [| 0.6; 0.8 |] in
  let data =
    Array.init 300 (fun _ ->
        let t = Rng.gaussian rng in
        let n = Rng.gaussian_scaled rng ~mu:0.0 ~sigma:0.05 in
        [| (t *. dir.(0)) -. (n *. dir.(1)); (t *. dir.(1)) +. (n *. dir.(0)) |])
  in
  let p = Pca.fit rng ~data ~n_components:1 ~iterations:50 in
  let c = p.Pca.components.(0) in
  check (close 0.02) "aligned with the true axis" 1.0
    (Float.abs (Linalg.dot c dir))

let test_pca_orthonormal_components () =
  let rng = Rng.create 19 in
  let data =
    Array.init 100 (fun _ -> Array.init 6 (fun _ -> Rng.gaussian rng))
  in
  let p = Pca.fit rng ~data ~n_components:3 ~iterations:40 in
  for i = 0 to 2 do
    check (close 1e-3) "unit norm" 1.0 (Linalg.norm2 p.Pca.components.(i));
    for j = i + 1 to 2 do
      check (close 0.05) "orthogonal" 0.0
        (Float.abs (Linalg.dot p.Pca.components.(i) p.Pca.components.(j)))
    done
  done

let test_pca_projection_centers () =
  let rng = Rng.create 20 in
  let data = Array.init 50 (fun _ -> Array.init 4 (fun _ -> Rng.float rng)) in
  let p = Pca.fit rng ~data ~n_components:2 ~iterations:30 in
  (* projecting the mean gives ~0 *)
  let z = Pca.project p p.Pca.mean in
  Array.iter (fun v -> check (close 1e-9) "mean projects to 0" 0.0 v) z

(* ------------------------------------------------------------------ *)
(* kNN / template / matched filter / metrics                           *)
(* ------------------------------------------------------------------ *)

let test_knn_classifies () =
  let rng = Rng.create 21 in
  let data = Dataset.Digits.generate rng ~width:8 ~height:8 ~n:150 in
  let train = Array.sub data 0 100 and test = Array.sub data 100 50 in
  check bool "knn L1 accuracy" true (Knn.accuracy ~metric:Knn.L1 ~k:3 ~train test > 0.8);
  check bool "knn L2 accuracy" true (Knn.accuracy ~metric:Knn.L2 ~k:3 ~train test > 0.8)

let test_knn_from_distances () =
  let train =
    [|
      { Dataset.features = [||]; label = 0 };
      { Dataset.features = [||]; label = 1 };
      { Dataset.features = [||]; label = 1 };
    |]
  in
  check int "majority of k=3" 1
    (Knn.classify_from_distances ~k:3 ~train [| 0.1; 0.2; 0.3 |]);
  check int "k=1 nearest" 0
    (Knn.classify_from_distances ~k:1 ~train [| 0.1; 0.2; 0.3 |])

let test_template_nearest () =
  let candidates = [| [| 0.0; 0.0 |]; [| 1.0; 1.0 |]; [| -1.0; 0.5 |] |] in
  let i, d = Template.For_tests.nearest ~metric:Template.L2 ~candidates [| 0.9; 0.9 |] in
  check int "nearest" 1 i;
  check (close 1e-9) "distance" 0.02 d

let test_matched_filter_detects () =
  let rng = Rng.create 22 in
  let template = Dataset.Gunshot.template rng ~len:256 in
  let windows = Dataset.Gunshot.windows rng ~template ~n:100 ~snr:1.0 in
  let threshold = Matched_filter.calibrate_threshold ~template windows in
  let f = Matched_filter.make ~template ~threshold in
  check bool "detection accuracy" true (Matched_filter.accuracy f windows > 0.95)

let test_linreg_of_statistics () =
  let fit =
    Linreg.of_statistics ~mean_u:0.0 ~mean_v:1.0 ~mean_u2:1.0 ~mean_uv:0.5
  in
  check (close 1e-9) "slope" 0.5 fit.Linreg.slope;
  check (close 1e-9) "intercept" 1.0 fit.Linreg.intercept;
  match Linreg.of_statistics ~mean_u:1.0 ~mean_v:0.0 ~mean_u2:1.0 ~mean_uv:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "zero variance must be rejected"

let test_metrics () =
  check (close 1e-9) "mismatch" 0.25
    (Metrics.mismatch_probability ~reference:[| 0; 1; 1; 0 |]
       ~promise:[| 0; 1; 0; 0 |]);
  check (close 1e-9) "geomean" 2.0 (Metrics.geometric_mean [ 1.0; 4.0 ])

let qcheck_knn_self_consistent =
  QCheck.Test.make ~name:"1-NN classifies training points exactly" ~count:50
    (QCheck.int_range 1 1000) (fun seed ->
      let rng = Rng.create seed in
      let data = Dataset.Digits.generate rng ~width:6 ~height:6 ~n:20 in
      Array.for_all
        (fun s -> Knn.For_tests.classify ~metric:Knn.L1 ~k:1 ~train:data s.Dataset.features
                  = s.Dataset.label)
        data)

let suite =
  [
    ("dot", `Quick, test_dot);
    ("distances", `Quick, test_distances);
    ("vector ops", `Quick, test_vector_ops);
    ("arg extrema", `Quick, test_arg_extrema);
    ("matrix ops", `Quick, test_mat_ops);
    ("fixed point roundtrip", `Quick, test_fixed_point_roundtrip);
    ("fixed point clamps", `Quick, test_fixed_point_clamps);
    ("quantize to bits", `Quick, test_quantize_to_bits);
    ("digits deterministic", `Quick, test_digits_deterministic);
    ("digits labels", `Quick, test_digits_labels_round_robin);
    ("digits range", `Quick, test_digits_range);
    ("digit classes distinguishable", `Quick, test_digits_classes_distinguishable);
    ("faces identities", `Quick, test_faces_identities);
    ("faces detection balanced", `Quick, test_faces_detection_balanced);
    ("gunshot windows", `Quick, test_gunshot_windows);
    ("linreg data", `Quick, test_linreg_data);
    ("train/test split", `Quick, test_train_test_split);
    ("mlp shapes", `Quick, test_mlp_shapes);
    ("mlp training improves", `Slow, test_mlp_training_improves);
    ("mlp relu trains", `Slow, test_mlp_relu_trains);
    ("mlp gradient check", `Quick, test_mlp_gradient_check);
    ("mlp sakr stats", `Slow, test_mlp_sakr_stats_positive);
    ("svm separable", `Quick, test_svm_separable);
    ("svm augmented weights", `Quick, test_svm_augmented_weights);
    ("pca dominant direction", `Quick, test_pca_recovers_dominant_direction);
    ("pca orthonormal", `Quick, test_pca_orthonormal_components);
    ("pca projection centers", `Quick, test_pca_projection_centers);
    ("knn classifies", `Quick, test_knn_classifies);
    ("knn from distances", `Quick, test_knn_from_distances);
    ("template nearest", `Quick, test_template_nearest);
    ("matched filter detects", `Quick, test_matched_filter_detects);
    ("linreg closed form", `Quick, test_linreg_of_statistics);
    ("metrics", `Quick, test_metrics);
    QCheck_alcotest.to_alcotest qcheck_fixed_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_knn_self_consistent;
  ]

let () = Alcotest.run "promise-ml" [ ("ml", suite) ]
