(* compile-cold: DSL → binary compiles of seven kernels, each after
   [Pipeline.Cache.clear], so every compile runs the frontend, the
   fail-closed lint gates, codegen and encoding. The eval and serve
   workloads bypass all of this: they compile once, during set-up. *)

open Common
module Dsl = P.Ir.Dsl
module Pipeline = P.Compiler.Pipeline

(* The four example kernels, read from the checkout. *)
let example_kernels () =
  [ "linreg"; "mlp"; "svm"; "template_matching" ]
  |> List.map (fun name ->
         let path = Filename.concat "examples/kernels" (name ^ ".sexp") in
         match P.Ir.Sexp_frontend.parse_file path with
         | Ok k -> k
         | Error e -> failwith (path ^ ": " ^ e))

(* DNN-1/2/3-shaped kernels (784-128-10, 784-256-128-10,
   784-512-256-128-10): one sigmoid layer loop per hidden layer, the
   output layer fused with argmax — the Figure-12 networks' shape. *)
let dnn_kernel name sizes =
  let n = List.length sizes - 1 in
  let out i = if i = n - 1 then "y" else Printf.sprintf "h%d" i in
  let inp i = if i = 0 then "x" else out (i - 1) in
  let width i = List.nth sizes (i + 1) in
  let decls =
    Dsl.vector "x" ~len:(List.hd sizes)
    :: List.concat
         (List.init n (fun i ->
              [
                Dsl.matrix (Printf.sprintf "W%d" i) ~rows:(width i)
                  ~cols:(List.nth sizes i);
                Dsl.out_vector (out i) ~len:(width i);
              ]))
  in
  let layer i =
    let body = Dsl.dot (Printf.sprintf "W%d" i) (inp i) in
    Dsl.for_store ~iterations:(width i) ~out:(out i)
      (if i = n - 1 then body else Dsl.sigmoid body)
  in
  Dsl.kernel ~name ~decls (List.init n layer @ [ Dsl.argmax (out (n - 1)) ])

let kernels () =
  example_kernels ()
  @ [
      dnn_kernel "dnn1" [ 784; 128; 10 ];
      dnn_kernel "dnn2" [ 784; 256; 128; 10 ];
      dnn_kernel "dnn3" [ 784; 512; 256; 128; 10 ];
    ]

let cold_compile k =
  Pipeline.Cache.clear ();
  let t0 = now_ns () in
  let r = Pipeline.compile_to_binary k in
  (ns_since t0, r)

let no_error what diags =
  match P.Diag.first_error diags with
  | None -> ()
  | Some d -> failwith (what ^ ": " ^ P.Error.to_string (P.Diag.to_error ~layer:what d))

(* One compile as its public stages, each in a span — the same calls,
   in the same order, as [Pipeline.compile] then [Pipeline.codegen]
   then the report's encodings. *)
let staged_compile tracer ~parent ~rid k =
  let span name f = Span.with_ tracer ~parent ~rid name (fun _ -> f ()) in
  let ssa = span "ir.lower" (fun () -> Dsl.lower k) in
  span "analysis.ssa_gates" (fun () ->
      no_error "ssa"
        (P.Analysis.Ssa_check.validate ssa
        @ P.Analysis.Liveness.check ssa
        @ P.Analysis.Regpressure.check_function ssa));
  let graph =
    span "ir.pattern" (fun () ->
        match P.Ir.Pattern.match_function ssa with
        | Ok g -> g
        | Error e -> failwith e)
  in
  let program =
    span "compiler.codegen" (fun () -> ok (P.Compiler.Lower.program_of_graph graph))
  in
  let tasks = program.Program.tasks in
  span "analysis.task_gates" (fun () ->
      no_error "tasks"
        (P.Analysis.Liveness.check_program tasks
        @ P.Analysis.Timing_check.check_program tasks));
  let binary = span "isa.encode" (fun () -> Program.to_binary program) in
  ignore (span "isa.asm" (fun () -> Program.to_asm program));
  binary

let stages =
  [
    ("ir.lower", "compile.ir_lower_share");
    ("analysis.ssa_gates", "compile.ssa_gates_share");
    ("ir.pattern", "compile.pattern_share");
    ("compiler.codegen", "compile.codegen_share");
    ("analysis.task_gates", "compile.task_gates_share");
    ("isa.encode", "compile.encode_share");
    ("isa.asm", "compile.asm_share");
  ]

let make ~seed =
  let t0 = now_ns () in
  let kernels = Array.of_list (kernels ()) in
  let models_s = s_since t0 in
  let n = Array.length kernels in
  (* The seed fixes the order the kernels are compiled in; every kernel
     is compiled equally often. *)
  let order =
    let rng = Random.State.make [| seed |] in
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* One warm compile per kernel: the binaries every later compile must
     reproduce. *)
  let reports = Array.map (fun k -> ok (snd (cold_compile k))) kernels in
  let expected = Array.map (fun r -> r.Pipeline.binary) reports in
  let digest =
    Digest.to_hex (Digest.string (String.concat "" (Array.to_list (Array.map Bytes.to_string expected))))
  in
  let programs =
    Array.to_list
      (Array.mapi (fun i r -> (kernels.(i).Dsl.name, r.Pipeline.program, 1)) reports)
  in
  (* The compiles of one window: a fixed-size sample of their times
     (ns), the compile rate per sub-window, and the failures. *)
  let window ~seconds ~first f =
    let sample = Stats.Reservoir.create ~seed 65536 in
    let rate = Rate.create () in
    let mismatches = ref 0 and errors = ref 0 in
    let t0 = now_ns () in
    let i = ref first in
    while !i = first || s_since t0 < seconds do
      let k = order.(!i mod n) in
      (match f ~rid:!i kernels.(k) with
      | dt, Ok binary ->
          Stats.Reservoir.add sample dt;
          Rate.add rate 1;
          if not (Bytes.equal binary expected.(k)) then incr mismatches
      | _, Error _ -> incr errors);
      incr i
    done;
    (sample, rate, !mismatches, !errors)
  in
  let untimed ~rid:_ k =
    let dt, r = cold_compile k in
    (dt, Result.map (fun r -> r.Pipeline.binary) r)
  in
  let verdict ~mismatches ~errors =
    let ok_digest = digest = Goldens.compile_binaries_md5 in
    ( mismatches = 0 && errors = 0 && ok_digest,
      Printf.sprintf
        "compile check: binaries md5 %s (golden %s), %d mismatched, %d failed"
        digest Goldens.compile_binaries_md5 mismatches errors )
  in
  let ms sample = List.map (fun ns -> ns /. 1e6) (Stats.Reservoir.to_list sample) in
  let measure ~seconds ~trace =
    match trace with
    | None ->
        let sample, rate, mismatches, errors = window ~seconds ~first:0 untimed in
        (* before the sample becomes lists, which would add megabytes *)
        let rss = vm_hwm_mb () in
        let correct, note = verdict ~mismatches ~errors in
        let lat = ms sample in
        let count = Stats.Reservoir.seen sample in
        {
          correct;
          attempted = count + errors;
          failed = errors;
          metrics =
            [
              m "op_p50_ms" "ms" (Stats.median lat);
              m "throughput_per_s" "1/s" (throughput (Rate.rates rate));
              m "peak_rss_mb" "MiB" rss;
            ];
          notes =
            [
              Printf.sprintf
                "compile: %d cold compiles, p50 %.1f us, p99 %.1f us (over a uniform \
                 sample of %d)"
                count (1e3 *. Stats.median lat) (1e3 *. Stats.percentile lat 0.99)
                (List.length lat);
              note;
            ];
        }
    | Some tracer ->
        let probe_s, half_s = split_window ~seconds in
        let arch = arch_probe ~seed ~budget:probe_s programs in
        let (untraced, _, mis1, err1), minor, major =
          gc_window (fun () -> window ~seconds:half_s ~first:0 untimed)
        in
        let nu = Stats.Reservoir.seen untraced in
        (* The real compile and its stages one by one, in alternating
           order so neither always runs on caches the other warmed. *)
        let traced ~rid k =
          Span.with_ tracer ~rid "compile.op" (fun op ->
              let pipeline () =
                Span.with_ tracer ~parent:op ~rid "compile.pipeline" (fun _ ->
                    cold_compile k)
              in
              let stages () =
                Span.with_ tracer ~parent:op ~rid "compile.stages" (fun parent ->
                    staged_compile tracer ~parent ~rid k)
              in
              let (dt, r), staged =
                if rid mod 2 = 0 then
                  let p = pipeline () in
                  (p, stages ())
                else
                  let s = stages () in
                  (pipeline (), s)
              in
              match r with
              | Ok r when Bytes.equal r.Pipeline.binary staged -> (dt, Ok staged)
              | Ok _ -> (dt, Ok Bytes.empty)
              | Error e -> (dt, Error e))
        in
        let timed, _, mis2, err2 = window ~seconds:half_s ~first:nu traced in
        let correct, note = verdict ~mismatches:(mis1 + mis2) ~errors:(err1 + err2) in
        let pipeline_ns = Span.total_ns tracer "compile.pipeline" in
        let share name = Span.self_ns tracer name /. pipeline_ns in
        let parts = List.fold_left (fun a (s, _) -> a +. Span.self_ns tracer s) 0.0 stages in
        let costs = List.map (fun (_, p, _) -> sim_cost ~seed p) programs in
        let mean f = Stats.mean (List.map f costs) in
        let lat = ms untraced in
        {
          correct;
          attempted = nu + Stats.Reservoir.seen timed + err1 + err2;
          failed = err1 + err2;
          metrics =
            common_layers ~arch ~latency_ms:lat
              ~op_traced_ms:
                (Stats.median (Span.durations_ns tracer "compile.pipeline") /. 1e6)
              ~minor_words_per_op:(minor /. float_of_int nu)
              ~major_gcs_per_op:(major /. float_of_int nu)
              ~tasks_per_op:(mean (fun (t, _, _) -> t))
              ~cycles_per_op:(mean (fun (_, c, _) -> c))
              ~energy_nj_per_op:(mean (fun (_, _, e) -> e))
            @ List.map (fun (span, metric) -> m metric "share" (share span)) stages
            @ [ m "compile.unattributed_share" "share" (1.0 -. (parts /. pipeline_ns)) ];
          notes = [ note ];
        }
  in
  { measure; teardown = ignore; models_s }
