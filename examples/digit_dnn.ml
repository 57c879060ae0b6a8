(* Digit recognition with a small DNN, compiled at an error tolerance.

     dune exec examples/digit_dnn.exe

   Trains a 784-128-10 perceptron on synthetic digits, compiles it into
   a two-Task PROMISE pipeline, estimates the Sakr back-propagation
   statistics (E_A, E_W), runs the analytic energy optimization at
   p_m = 1%, and compares accuracy and energy at maximum vs optimized
   swings. *)

module P = Promise
module Dsl = P.Ir.Dsl
module Rt = P.Compiler.Runtime
module Rng = P.Analog.Rng
module Mlp = P.Ml.Mlp

let () =
  (* 1. train the float model *)
  let rng = Rng.create 99 in
  let data = P.Ml.Dataset.Digits.generate rng ~width:28 ~height:28 ~n:800 in
  let train, test = P.Ml.Dataset.train_test_split data ~test_fraction:0.1 in
  let model = Mlp.create rng ~sizes:[ 784; 128; 10 ] ~hidden_activation:Mlp.Sigmoid in
  Mlp.train model rng ~data:train ~epochs:3 ~lr:0.15;
  Printf.printf "float model accuracy: %.3f\n" (Mlp.accuracy model test);

  (* 2. the two-layer kernel; the output decision fuses into Class-4 max *)
  let kernel =
    Dsl.kernel ~name:"digit_dnn"
      ~decls:
        [
          Dsl.vector "x" ~len:784;
          Dsl.matrix "W0" ~rows:128 ~cols:784;
          Dsl.out_vector "h" ~len:128;
          Dsl.matrix "W1" ~rows:10 ~cols:128;
          Dsl.out_vector "y" ~len:10;
        ]
      [
        Dsl.for_store ~iterations:128 ~out:"h" (Dsl.sigmoid (Dsl.dot "W0" "x"));
        Dsl.for_store ~iterations:10 ~out:"y" (Dsl.dot "W1" "h");
        Dsl.argmax "y";
      ]
  in
  let graph = match P.compile kernel with Ok g -> g | Error e -> failwith (P.Error.to_string e) in

  (* 3. energy optimization: tolerance -> bits -> per-layer swings *)
  let stats = P.Compiler.Precision.of_mlp model (Array.sub test 0 40) in
  Format.printf "back-prop statistics: %a@." P.Compiler.Precision.pp_stats stats;
  let optimized, bits =
    match P.Compiler.Swing_opt.optimize_graph graph ~stats ~pm:0.01 with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  Printf.printf "precision target: %d bits\n" bits;

  (* 4. run the test set at both configurations *)
  let accuracy_of graph =
    let machine =
      P.Arch.Machine.create
        { P.Arch.Machine.banks = 8; profile = P.Arch.Bank.Silicon;
          noise_seed = Some 11 }
    in
    let correct = ref 0 in
    Array.iter
      (fun s ->
        let b = Rt.bindings () in
        Rt.bind_matrix b "W0" model.Mlp.layers.(0).Mlp.weights;
        Rt.bind_matrix b "W1" model.Mlp.layers.(1).Mlp.weights;
        Rt.bind_vector b "x" s.P.Ml.Dataset.features;
        match Rt.run ~machine graph b with
        | Error e -> failwith (P.Error.to_string e)
        | Ok r -> (
            match Rt.final_output r with
            | Ok { Rt.decision = Some (cls, _); _ } ->
                if cls = s.P.Ml.Dataset.label then incr correct
            | _ -> failwith "no decision"))
      test;
    float_of_int !correct /. float_of_int (Array.length test)
  in
  let describe name graph =
    let swings =
      List.map
        (fun id -> (P.Ir.Graph.task graph id).P.Ir.Abstract_task.swing)
        (P.Ir.Graph.topological_order graph)
    in
    let energy =
      match P.Compiler.Pipeline.codegen graph with
      | Ok p -> P.Energy.Model.total (P.Energy.Model.program_energy_steady p)
      | Error e -> failwith (P.Error.to_string e)
    in
    Printf.printf "%s: swings (%s), accuracy %.3f, %.1f nJ/decision\n" name
      (String.concat "," (List.map string_of_int swings))
      (accuracy_of graph) (energy /. 1e3)
  in
  describe "max swing " graph;
  describe "optimized " optimized
