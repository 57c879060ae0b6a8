module Dsl = Promise_ir.Dsl
module At = Promise_ir.Abstract_task
module Graph = Promise_ir.Graph
module Program = Promise_isa.Program
module Model = Promise_energy.Model
module Conv = Promise_energy.Conv
module Machine = Promise_arch.Machine
module Bank = Promise_arch.Bank
module Runtime = Promise_compiler.Runtime
module Pipeline = Promise_compiler.Pipeline
module Precision = Promise_compiler.Precision
module Swing_opt = Promise_compiler.Swing_opt
module Rng = Promise_analog.Rng
module Ml = Promise_ml
module Fx = Promise_ml.Fixed_point

type eval = {
  promise_accuracy : float;
  reference_accuracy : float;
  mismatch : float;
}

type t = {
  name : string;
  short : string;
  abstract_tasks : int;
  graph : Graph.t;
  per_decision_program : Program.t;
  banks : int;
  conv_workload : Conv.workload;
  conv_opt_bits : int;
  reference_accuracy : float;
  evaluate :
    ?seed:int ->
    ?profile:Bank.profile ->
    ?prepare:(Machine.t -> unit) ->
    ?recovery:Runtime.recovery ->
    ?banks:int ->
    ?pool:Promise_core.Pool.t ->
    ?batch:int ->
    swings:int list ->
    unit ->
    eval;
  stats : Precision.stats option;
}

let err_string = Promise_core.Error.to_string

let compile_exn kernel =
  match Pipeline.compile kernel with
  | Ok g -> g
  | Error e ->
      invalid_arg
        (Printf.sprintf "benchmark kernel failed to compile: %s" (err_string e))

let codegen_exn g =
  match Pipeline.codegen g with
  | Ok p -> p
  | Error e -> invalid_arg ("benchmark codegen failed: " ^ err_string e)

let apply_swings g swings =
  let order = Graph.topological_order g in
  if List.length swings <> List.length order then
    invalid_arg "apply_swings: one swing per task required";
  let table = Hashtbl.create 8 in
  List.iter2 (fun id s -> Hashtbl.replace table id s) order swings;
  Graph.map_tasks g (fun id task -> At.with_swing task (Hashtbl.find table id))

let run_exn = function
  | Ok v -> v
  | Error e -> invalid_arg ("benchmark batch run failed: " ^ err_string e)

(* One runtime session per evaluation: the machine keeps the static W
   resident and each test vector streams only its X. The returned
   [query x ~batch] binds [x] to the kernel's vector "x" and runs
   [batch] decisions of it, bit-identical to [batch] sequential
   [Runtime.run] calls on bindings holding both (so [batch = 1] is
   exactly the historical single-decision evaluation); the session dies
   with the evaluation. *)
let session_exn ?recovery ?pool machine g ~bind_static =
  let static = Runtime.bindings () in
  bind_static static;
  let s =
    run_exn (Runtime.session ?recovery ?pool machine g static)
  in
  fun x ~batch ->
    let b = Runtime.bindings () in
    Runtime.bind_vector b "x" x;
    run_exn (Runtime.query s b ~batch)

let final_values r =
  match Runtime.final_output r with
  | Ok o -> o.Runtime.values
  | Error e -> invalid_arg (err_string e)

let final_decision r =
  match Runtime.final_output r with
  | Ok { Runtime.decision = Some (i, _); _ } -> i
  | Ok _ -> invalid_arg "benchmark: no fused decision in output"
  | Error e -> invalid_arg (err_string e)

(* The digital CONV-OPT precision floor is 4 bits: the adaptive-precision
   range of the [7] silicon is 4-8 bits, and our synthetic data is more
   quantization-tolerant than the paper's (see EXPERIMENTS.md). *)
let conv_opt_bits_for ~ref_acc ~acc_at_bits =
  let rec search b = if b >= 8 then 8
    else if ref_acc -. acc_at_bits b <= 0.01 then b
    else search (b + 1)
  in
  max 4 (search 2)

(* Quantize a float array to a b-bit grid, preserving scale. *)
let requantize ~bits v =
  let k = Float.max 1e-12 (Ml.Linalg.max_abs v) in
  Array.map (fun x -> Fx.quantize_to_bits (x /. k) ~bits *. k) v

let requantize_mat ~bits m =
  let k = Float.max 1e-12 (Ml.Linalg.mat_max_abs m) in
  Array.map (Array.map (fun x -> Fx.quantize_to_bits (x /. k) ~bits *. k)) m

let requantize_samples ~bits =
  Array.map (fun s ->
      { s with Ml.Dataset.features = requantize ~bits s.Ml.Dataset.features })

(* Builder memoization, keyed by a size configuration (or [()]). It
   must be domain-safe now that suites fan out across a pool: the mutex
   is held while [f] runs, so a benchmark is trained exactly once no
   matter how many domains ask for it. *)
let memo_by f =
  let lock = Mutex.create () in
  let cache = Hashtbl.create 8 in
  fun key ->
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt cache key with
        | Some v -> v
        | None ->
            let v = f key in
            Hashtbl.add cache key v;
            v)

(* ------------------------------------------------------------------ *)
(* The one benchmark constructor and evaluation protocol               *)
(* ------------------------------------------------------------------ *)

(* A benchmark's score: its accuracy (or fidelity) over the test set,
   run on [machine] for [graph] at the evaluated swings, with [batch]
   noise realizations of every decision. *)
type score =
  ?recovery:Runtime.recovery ->
  ?pool:Promise_core.Pool.t ->
  batch:int ->
  Graph.t ->
  Machine.t ->
  float

(* A family supplies only what is its own: names, DSL kernel, CONV
   size, reference accuracy, CONV-OPT precision, Sakr statistics and
   score. [make] compiles and lowers the kernel and derives the rest.
   Its [evaluate] is the one evaluation protocol: apply the swings, size
   a fresh seeded machine ([Runtime.required_banks] unless [~banks]),
   hand it to [prepare], score on it, clamp the mismatch at 0. *)
let make ~name ~short ~kernel ~macs ~fetch_words ~reference_accuracy
    ~conv_opt_bits ?stats (score : score) =
  let graph = compile_exn kernel in
  let per_decision_program = codegen_exn graph in
  let banks = Program.max_banks per_decision_program in
  let evaluate ?(seed = 42) ?(profile = Bank.Silicon) ?prepare ?recovery
      ?banks ?pool ?(batch = 1) ~swings () =
    let g = apply_swings graph swings in
    let banks =
      match banks with Some b -> b | None -> Runtime.required_banks g
    in
    let machine =
      Machine.create { Machine.banks; profile; noise_seed = Some seed }
    in
    Option.iter (fun f -> f machine) prepare;
    let promise_accuracy = score ?recovery ?pool ~batch g machine in
    {
      promise_accuracy;
      reference_accuracy;
      mismatch = Float.max 0.0 (reference_accuracy -. promise_accuracy);
    }
  in
  {
    name;
    short;
    abstract_tasks = Graph.n_tasks graph;
    graph;
    per_decision_program;
    banks;
    conv_workload = { Conv.macs; fetch_words; banks };
    conv_opt_bits;
    reference_accuracy;
    evaluate;
    stats;
  }

(* The classifier score: one session per evaluation, one query per test
   vector, accuracy over Q × batch decisions. *)
let classify ~bind_static ~queries ~labels ~decide : score =
 fun ?recovery ?pool ~batch g machine ->
  let query = session_exn ?recovery ?pool machine g ~bind_static in
  let correct = ref 0 in
  Array.iteri
    (fun i q ->
      Array.iter
        (fun r -> if decide r = labels.(i) then incr correct)
        (query q ~batch))
    queries;
  float_of_int !correct /. float_of_int (Array.length queries * batch)

let bind_w w b = Runtime.bind_matrix b "W" w
let features = Array.map (fun s -> s.Ml.Dataset.features)
let labels_of = Array.map (fun s -> s.Ml.Dataset.label)

(* The binary detectors (matched filter, SVM): one thresholded dot
   product of [n] dims, decision 1 when it fires. *)
let detector_kernel ~name ~n ~threshold =
  Dsl.kernel ~name
    ~decls:
      [
        Dsl.matrix "W" ~rows:1 ~cols:n;
        Dsl.vector "x" ~len:n;
        Dsl.out_vector "out" ~len:1;
      ]
    [
      Dsl.for_store ~iterations:1 ~out:"out"
        (Dsl.sthreshold threshold (Dsl.dot "W" "x"));
    ]

let detected r = if (final_values r).(0) > 0.5 then 1 else 0

(* [rows] L1/L2 distances of x to the rows of W. *)
let distance_kernel ~name ~metric ~rows ~dims stmts =
  let body =
    match metric with
    | `L1 -> Dsl.l1_distance "W" "x"
    | `L2 -> Dsl.l2_distance "W" "x"
  in
  Dsl.kernel ~name
    ~decls:
      [
        Dsl.matrix "W" ~rows ~cols:dims;
        Dsl.vector "x" ~len:dims;
        Dsl.out_vector "out" ~len:rows;
      ]
    (Dsl.for_store ~iterations:rows ~out:"out" body :: stmts)

let sized_short base (width, height) =
  if (width, height) = (16, 16) then base
  else Printf.sprintf "%s-%dx%d" base width height

(* ------------------------------------------------------------------ *)
(* Matched filter: gunshot detection, N = 512                          *)
(* ------------------------------------------------------------------ *)

let matched_filter_sized =
  memo_by (fun n ->
      let rng = Rng.create (101 + n) in
      let template = Ml.Dataset.Gunshot.template rng ~len:n in
      let calib =
        Ml.Dataset.Gunshot.windows rng ~template ~n:200 ~snr:1.0
      in
      let threshold = Ml.Matched_filter.calibrate_threshold ~template calib in
      let filt = Ml.Matched_filter.make ~template ~threshold in
      let test = Ml.Dataset.Gunshot.windows rng ~template ~n:100 ~snr:1.0 in
      let reference_accuracy = Ml.Matched_filter.accuracy filt test in
      let acc_at_bits bits =
        let f =
          Ml.Matched_filter.make ~template:(requantize ~bits template)
            ~threshold
        in
        Ml.Matched_filter.accuracy f (requantize_samples ~bits test)
      in
      make
        ~name:(Printf.sprintf "Matched filter (gunshot detection, N=%d)" n)
        ~short:(if n = 512 then "Match.Filt." else Printf.sprintf "MF-%d" n)
        ~kernel:
          (detector_kernel ~name:"matched_filter" ~n ~threshold)
        ~macs:n ~fetch_words:n ~reference_accuracy
        ~conv_opt_bits:(conv_opt_bits_for ~ref_acc:reference_accuracy ~acc_at_bits)
        (classify ~bind_static:(bind_w [| template |]) ~queries:(features test)
           ~labels:(labels_of test) ~decide:detected))

let matched_filter () = matched_filter_sized 512

(* ------------------------------------------------------------------ *)
(* Template matching L1 / L2: face recognition, 64 candidates          *)
(* ------------------------------------------------------------------ *)

let template_sized =
  memo_by (fun (metric, (width, height)) ->
      let n_candidates = 64 and n_queries = 80 in
      let rng = Rng.create (202 + (width * height)) in
      let candidates =
        Ml.Dataset.Faces.identities rng ~width ~height ~n:n_candidates
      in
      let queries =
        Array.init n_queries (fun i ->
            let identity = i mod n_candidates in
            ( Ml.Dataset.Faces.query rng ~width ~height candidates ~identity,
              identity ))
      in
      let ml_metric =
        match metric with `L1 -> Ml.Template.L1 | `L2 -> Ml.Template.L2
      in
      let reference_accuracy =
        Ml.Template.recognition_accuracy ~metric:ml_metric ~candidates queries
      in
      let acc_at_bits bits =
        let cq = requantize_mat ~bits candidates in
        let qq = Array.map (fun (q, l) -> (requantize ~bits q, l)) queries in
        Ml.Template.recognition_accuracy ~metric:ml_metric ~candidates:cq qq
      in
      let dims = width * height in
      let short =
        sized_short
          (match metric with `L1 -> "Temp.Match.L1" | `L2 -> "Temp.Match.L2")
          (width, height)
      in
      make ~name:("Template matching (" ^ short ^ ")") ~short
        ~kernel:
          (distance_kernel
             ~name:
               (match metric with
               | `L1 -> "template_l1"
               | `L2 -> "template_l2")
             ~metric ~rows:n_candidates ~dims [ Dsl.argmin "out" ])
        ~macs:(n_candidates * dims) ~fetch_words:(n_candidates * dims)
        ~reference_accuracy
        ~conv_opt_bits:(conv_opt_bits_for ~ref_acc:reference_accuracy ~acc_at_bits)
        (classify ~bind_static:(bind_w candidates)
           ~queries:(Array.map fst queries) ~labels:(Array.map snd queries)
           ~decide:final_decision))

let template_l1 () = template_sized (`L1, (16, 16))
let template_l2 () = template_sized (`L2, (16, 16))

(* ------------------------------------------------------------------ *)
(* Linear SVM: face detection, 16x16 + bias                            *)
(* ------------------------------------------------------------------ *)

let svm =
  memo_by (fun () ->
      let width = 16 and height = 16 in
      let rng = Rng.create 303 in
      let data = Ml.Dataset.Faces.detection rng ~width ~height ~n:600 in
      let train, test = Ml.Dataset.train_test_split data ~test_fraction:0.25 in
      let model = Ml.Svm.train rng ~data:train ~epochs:30 ~lambda:0.003 in
      let reference_accuracy = Ml.Svm.accuracy model test in
      let dims = (width * height) + 1 in
      let weights = Ml.Svm.augmented_weights model in
      let queries =
        Array.map (fun s -> Array.append s.Ml.Dataset.features [| 1.0 |]) test
      in
      let labels = labels_of test in
      let acc_at_bits bits =
        let wq = requantize ~bits weights in
        let correct = ref 0 in
        Array.iteri
          (fun i q ->
            let qq = requantize ~bits q in
            let d = Ml.Linalg.dot wq qq in
            if (if d > 0.0 then 1 else 0) = labels.(i) then incr correct)
          queries;
        float_of_int !correct /. float_of_int (Array.length queries)
      in
      make ~name:"Linear SVM (face detection)" ~short:"Linear SVM"
        ~kernel:(detector_kernel ~name:"svm" ~n:dims ~threshold:0.0)
        ~macs:dims ~fetch_words:dims ~reference_accuracy
        ~conv_opt_bits:(conv_opt_bits_for ~ref_acc:reference_accuracy ~acc_at_bits)
        (classify ~bind_static:(bind_w [| weights |]) ~queries ~labels
           ~decide:detected))

(* ------------------------------------------------------------------ *)
(* k-NN L1 / L2: character recognition, 128 stored samples, 16x16      *)
(* ------------------------------------------------------------------ *)

let knn_sized =
  memo_by (fun (metric, (width, height)) ->
      let n_train = 128 and n_test = 80 and k = 5 in
      let rng = Rng.create (404 + (width * height)) in
      let data =
        Ml.Dataset.Digits.generate rng ~width ~height ~n:(n_train + n_test)
      in
      let train = Array.sub data 0 n_train in
      let test = Array.sub data n_train n_test in
      let ml_metric = match metric with `L1 -> Ml.Knn.L1 | `L2 -> Ml.Knn.L2 in
      let reference_accuracy =
        Ml.Knn.accuracy ~metric:ml_metric ~k ~train test
      in
      let acc_at_bits bits =
        Ml.Knn.accuracy ~metric:ml_metric ~k
          ~train:(requantize_samples ~bits train)
          (requantize_samples ~bits test)
      in
      let dims = width * height in
      let short =
        sized_short
          (match metric with `L1 -> "k-NN L1" | `L2 -> "k-NN L2")
          (width, height)
      in
      make ~name:("k-NN (" ^ short ^ ", character recognition)") ~short
        ~kernel:
          (distance_kernel
             ~name:(match metric with `L1 -> "knn_l1" | `L2 -> "knn_l2")
             ~metric ~rows:n_train ~dims [])
        ~macs:(n_train * dims) ~fetch_words:(n_train * dims)
        ~reference_accuracy
        ~conv_opt_bits:(conv_opt_bits_for ~ref_acc:reference_accuracy ~acc_at_bits)
        (classify ~bind_static:(bind_w (features train)) ~queries:(features test)
           ~labels:(labels_of test)
           ~decide:(fun r ->
             Ml.Knn.classify_from_distances ~k ~train (final_values r))))

let knn_l1 () = knn_sized (`L1, (16, 16))
let knn_l2 () = knn_sized (`L2, (16, 16))

(* ------------------------------------------------------------------ *)
(* PCA feature extraction: 4 components of 16x16 faces                 *)
(* ------------------------------------------------------------------ *)

let pca =
  memo_by (fun () ->
      let width = 16 and height = 16 in
      let rng = Rng.create 505 in
      let data = Ml.Dataset.Faces.detection rng ~width ~height ~n:200 in
      let samples = features data in
      let model = Ml.Pca.fit rng ~data:samples ~n_components:4 ~iterations:30 in
      let dims = width * height in
      let test = Array.sub samples 0 40 in
      (* Accuracy proxy for a non-classifier: 1 − mean relative feature
         error against the float reference. *)
      let feature_fidelity ?recovery ?pool ~batch g machine =
        let query =
          session_exn ?recovery ?pool machine g
            ~bind_static:(bind_w model.Ml.Pca.components)
        in
        let total_err = ref 0.0 in
        Array.iter
          (fun x ->
            let centered = Ml.Linalg.sub x model.Ml.Pca.mean in
            let reference = Ml.Pca.project model x in
            let scale = Float.max 1e-6 (Ml.Linalg.max_abs reference) in
            Array.iter
              (fun r ->
                let got = final_values r in
                let err =
                  Ml.Linalg.max_abs (Ml.Linalg.sub got reference) /. scale
                in
                total_err := !total_err +. err)
              (query centered ~batch))
          test;
        Float.max 0.0
          (1.0 -. (!total_err /. float_of_int (Array.length test * batch)))
      in
      make ~name:"Feature extraction (PCA, face detection)" ~short:"PCA"
        ~kernel:
          (Dsl.kernel ~name:"pca"
             ~decls:
               [
                 Dsl.matrix "W" ~rows:4 ~cols:dims;
                 Dsl.vector "x" ~len:dims;
                 Dsl.out_vector "out" ~len:4;
               ]
             [ Dsl.for_store ~iterations:4 ~out:"out" (Dsl.dot "W" "x") ])
        ~macs:(4 * dims) ~fetch_words:(4 * dims) ~reference_accuracy:1.0
        ~conv_opt_bits:8 feature_fidelity)

(* ------------------------------------------------------------------ *)
(* Linear regression: 4 AbstractTasks over 8192 2-D samples            *)
(* ------------------------------------------------------------------ *)

let linreg =
  memo_by (fun () ->
      let n = 8192 and cols = 4096 in
      let rng = Rng.create 606 in
      let u, v =
        Ml.Dataset.Linreg2d.generate rng ~n ~slope:0.6 ~intercept:0.15
          ~noise:0.05
      in
      let reference = Ml.Linreg.fit u v in
      let rows = n / cols in
      let fit_of_run r =
        match
          List.map (fun (_, o) -> o.Runtime.values.(0)) r.Runtime.outputs
        with
        | [ mean_u; mean_v; mean_u2; mean_uv ] ->
            Ml.Linreg.of_statistics ~mean_u ~mean_v ~mean_u2 ~mean_uv
        | _ -> invalid_arg "linreg: expected four statistics"
      in
      (* Mean parameter fidelity over the batch's fits; batch 1 is the
         historical single-fit evaluation. *)
      let parameter_fidelity ?recovery ?pool ~batch g machine =
        let b = Runtime.bindings () in
        Runtime.bind_flat b "U" u ~cols;
        Runtime.bind_flat b "V" v ~cols;
        Runtime.bind_vector b "Vvec" v;
        let rs =
          run_exn
            (Runtime.run_batch ~machine ?recovery ?pool g b ~batch)
        in
        let rel a b = Float.abs (a -. b) /. Float.max 0.05 (Float.abs b) in
        let total = ref 0.0 in
        Array.iter
          (fun r ->
            let fit = fit_of_run r in
            let err =
              Float.max
                (rel fit.Ml.Linreg.slope reference.Ml.Linreg.slope)
                (rel fit.Ml.Linreg.intercept reference.Ml.Linreg.intercept)
            in
            total := !total +. Float.max 0.0 (1.0 -. err))
          rs;
        !total /. float_of_int batch
      in
      make ~name:"Linear regression (2-D synthetic)" ~short:"Linear Reg."
        ~kernel:
          (Dsl.kernel ~name:"linreg"
             ~decls:
               [
                 Dsl.matrix "U" ~rows ~cols;
                 Dsl.matrix "V" ~rows ~cols;
                 Dsl.vector "Vvec" ~len:n;
               ]
             [
               Dsl.mean "U";
               Dsl.mean "V";
               Dsl.mean_square "U";
               Dsl.mean_product "U" "Vvec";
             ])
        ~macs:(4 * n) ~fetch_words:(2 * n) ~reference_accuracy:1.0
        ~conv_opt_bits:8 parameter_fidelity)

(* ------------------------------------------------------------------ *)
(* DNN-1/2/3: MNIST-like digit recognition                             *)
(* ------------------------------------------------------------------ *)

type dnn_variant = D1 | D2 | D3

let dnn_sizes = function
  | D1 -> [ 784; 128; 10 ]
  | D2 -> [ 784; 256; 128; 10 ]
  | D3 -> [ 784; 512; 256; 128; 10 ]

let dnn_name = function D1 -> "DNN-1" | D2 -> "DNN-2" | D3 -> "DNN-3"

let dnn_build variant =
  let sizes = dnn_sizes variant in
  let width = 28 and height = 28 in
  let rng = Rng.create 707 in
  let data = Ml.Dataset.Digits.generate rng ~width ~height ~n:1100 in
  let train, test = Ml.Dataset.train_test_split data ~test_fraction:0.1 in
  let test = Array.sub test 0 (min 60 (Array.length test)) in
  let model = Ml.Mlp.create rng ~sizes ~hidden_activation:Ml.Mlp.Sigmoid in
  Ml.Mlp.train model rng ~data:train ~epochs:3 ~lr:0.15;
  let reference_accuracy = Ml.Mlp.accuracy model test in
  let stats = Precision.of_mlp model (Array.sub test 0 (min 40 (Array.length test))) in
  let acc_at_bits bits =
    let q =
      {
        Ml.Mlp.layers =
          Array.map
            (fun l ->
              { l with Ml.Mlp.weights = requantize_mat ~bits l.Ml.Mlp.weights })
            model.Ml.Mlp.layers;
      }
    in
    Ml.Mlp.accuracy q test
  in
  (* One for_store loop per layer; intermediate activations chain tasks. *)
  let n_layers = List.length sizes - 1 in
  let layer_out i = if i = n_layers - 1 then "y" else Printf.sprintf "h%d" i in
  let layer_in i = if i = 0 then "x" else layer_out (i - 1) in
  let fan_in i = List.nth sizes i and fan_out i = List.nth sizes (i + 1) in
  let decls =
    Dsl.vector "x" ~len:(List.hd sizes)
    :: List.concat
         (List.init n_layers (fun i ->
              [
                Dsl.matrix (Printf.sprintf "W%d" i) ~rows:(fan_out i)
                  ~cols:(fan_in i);
                Dsl.out_vector (layer_out i) ~len:(fan_out i);
              ]))
  in
  (* Hidden layers apply the PWL sigmoid; the output layer fuses the
     decision into Class-4 max (argmax(z) = argmax(sigmoid(z)), and the
     saturating PWL sigmoid would tie confident classes). *)
  let stmts =
    List.init n_layers (fun i ->
        let body = Dsl.dot (Printf.sprintf "W%d" i) (layer_in i) in
        if i = n_layers - 1 then
          Dsl.for_store ~iterations:(fan_out i) ~out:(layer_out i) body
        else
          Dsl.for_store ~iterations:(fan_out i) ~out:(layer_out i)
            (Dsl.sigmoid body))
    @ [ Dsl.argmax (layer_out (n_layers - 1)) ]
  in
  let bind_static b =
    Array.iteri
      (fun i layer ->
        Runtime.bind_matrix b (Printf.sprintf "W%d" i) layer.Ml.Mlp.weights)
      model.Ml.Mlp.layers
  in
  let macs =
    List.fold_left ( + ) 0 (List.init n_layers (fun i -> fan_in i * fan_out i))
  in
  make
    ~name:(dnn_name variant ^ " (multilayer perceptron, digits)")
    ~short:(dnn_name variant)
    ~kernel:(Dsl.kernel ~name:(dnn_name variant) ~decls stmts)
    ~macs ~fetch_words:macs ~reference_accuracy
    ~conv_opt_bits:(conv_opt_bits_for ~ref_acc:reference_accuracy ~acc_at_bits)
    ~stats
    (classify ~bind_static ~queries:(features test) ~labels:(labels_of test)
       ~decide:final_decision)

let dnn1 = memo_by (fun () -> dnn_build D1)
let dnn2 = memo_by (fun () -> dnn_build D2)
let dnn3 = memo_by (fun () -> dnn_build D3)

let dnn = function D1 -> dnn1 () | D2 -> dnn2 () | D3 -> dnn3 ()

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)
(* ------------------------------------------------------------------ *)

let fig10_suite () =
  [
    matched_filter ();
    template_l1 ();
    template_l2 ();
    svm ();
    knn_l1 ();
    knn_l2 ();
    pca ();
    linreg ();
  ]

let size_variants () =
  [
    matched_filter_sized 256;
    matched_filter_sized 512;
    matched_filter_sized 1024;
    template_sized (`L1, (16, 16));
    template_sized (`L1, (22, 23));
    template_sized (`L1, (32, 33));
    knn_sized (`L1, (16, 16));
    knn_sized (`L1, (22, 23));
    knn_sized (`L1, (32, 33));
  ]

let fig12_suite () =
  [
    matched_filter ();
    template_l1 ();
    template_l2 ();
    svm ();
    knn_l1 ();
    knn_l2 ();
    dnn D1;
    dnn D2;
    dnn D3;
  ]

(* ------------------------------------------------------------------ *)
(* Derived metrics                                                     *)
(* ------------------------------------------------------------------ *)

let program_at_swings b swings =
  codegen_exn (apply_swings b.graph swings)

let promise_energy b ~swings =
  Model.program_energy (program_at_swings b swings)

let lint ?pm ?adc_units b =
  Pipeline.lint_program ?pm ?stats:b.stats ?adc_units
    ~target:("benchmark:" ^ b.name) b.graph b.per_decision_program

let max_swings b = List.init b.abstract_tasks (fun _ -> 7)

let ( let* ) = Result.bind

let optimize ?pool b ~pm =
  match b.stats with
  | Some stats ->
      (* Analytic path (multi-task DNNs). *)
      let* g, _bits = Swing_opt.optimize_graph b.graph ~stats ~pm in
      let swings =
        List.map
          (fun id -> (Graph.task g id).At.swing)
          (Graph.topological_order g)
      in
      Ok (swings, b.evaluate ?pool ~swings ())
  | None ->
      if b.abstract_tasks <> 1 then
        Error
          (Printf.sprintf
             "%s: brute-force sweep applies to single-task kernels only"
             b.short)
      else
        let simulate s = (b.evaluate ?pool ~swings:[ s ] ()).promise_accuracy in
        let energy_at s = Model.total (promise_energy b ~swings:[ s ]) in
        let r =
          Swing_opt.optimize_single ~simulate ~energy_at
            ~reference_accuracy:b.reference_accuracy ~pm
        in
        Ok
          ( [ r.Swing_opt.chosen ],
            b.evaluate ?pool ~swings:[ r.Swing_opt.chosen ] () )

(* ------------------------------------------------------------------ *)
(* State-of-the-art comparison configurations (§6.2)                   *)
(* ------------------------------------------------------------------ *)

let knn_soa_program ~metric =
  codegen_exn
    (compile_exn
       (distance_kernel ~name:"knn_soa" ~metric ~rows:128 ~dims:128 []))

let dnn_soa () =
  let b = dnn D3 in
  let program = b.per_decision_program in
  let energy = Model.total (Model.program_energy_steady program) in
  (* The paper's 36-bank configuration processes a decision stream: row
     chunks of one layer run concurrently on separate bank groups and
     successive layers pipeline across samples. The allocator packs the
     chunks and the sustained decision period is the slowest level. *)
  let levels =
    List.map
      (fun id ->
        let at = Graph.task b.graph id in
        match
          Promise_arch.Layout.plan ~vector_len:at.At.vector_len
            ~rows:at.At.loop_iterations ()
        with
        | Ok plan -> plan.Promise_arch.Layout.tasks
        | Error _ -> 1)
      (Graph.topological_order b.graph)
  in
  let delay_ns =
    match
      Promise_compiler.Allocator.of_program ~total_banks:36 ~levels program
    with
    | Ok plan ->
        float_of_int plan.Promise_compiler.Allocator.pipelined_interval
    | Error _ -> float_of_int (Model.program_steady_cycles program)
  in
  (program, energy, delay_ns)

module For_tests = struct
  let matched_filter_sized = matched_filter_sized
end
