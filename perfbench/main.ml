(* The repo benchmark.

     main.exe run --workload NAME --seed S --seconds T --trace 0|1
     main.exe sweep --runs N --out SET.json [--traced] [--append]
     main.exe compare PARENT.json CHANGE.json
     main.exe smoke                     (also run by dune runtest)

   [run] sets the workload up (several times: in fresh child processes,
   then once for real, reporting the median as setup_s), measures
   for T seconds, checks the outputs and prints, as its last line, one
   JSON object: {correct, attempted, failed, metrics}. Untraced, the
   metrics are BENCHMARK.json's end_to_end list; traced, its per_layer
   list, and the spans go to .perfbench/trace-NAME-S.json. *)

open Common

(* name → (set-up, layers the workload never enters: their per-layer
   shares and counts read 0) *)
let workloads =
  [
    ("eval-single", (Eval.single, [ "compile"; "serve" ]));
    ("eval-mc", (Eval.mc, [ "compile"; "serve" ]));
    ("compile-cold", (Compile_cold.make, [ "eval"; "serve" ]));
    ("serve-mf", (Serve_load.mf, [ "compile"; "eval" ]));
    ("serve-mix", (Serve_load.mix, [ "compile"; "eval" ]));
  ]

let min_setup_children = 2
let max_setup_children = 24
let spec_file = "BENCHMARK.json"

(* --- BENCHMARK.json ------------------------------------------------ *)

type spec_metric = { s_name : string; s_unit : string; s_lower : bool; s_bound : float }

let spec_metrics spec key =
  Json.to_list (Json.member key spec)
  |> List.map (fun j ->
         {
           s_name = Json.to_str (Json.member "name" j);
           s_unit = Json.to_str (Json.member "unit" j);
           s_lower = Json.to_str (Json.member "better" j) = "lower";
           s_bound = Json.to_num (Json.member "bound" j);
         })

let workload_names spec =
  List.map (fun j -> Json.to_str (Json.member "name" j)) (Json.to_list (Json.member "workloads" spec))

(* The results of a set's untraced runs of [workload], in run order. *)
let untraced_results runs workload =
  List.filter_map
    (fun r ->
      if Json.to_str (Json.member "workload" r) = workload
         && Json.to_num (Json.member "trace" r) = 0.0
      then Some (Json.member "result" r)
      else None)
    runs

let metric_value w result =
  Json.to_num (Json.member "value" (Json.member w.s_name (Json.member "metrics" result)))

(* --- Host ---------------------------------------------------------- *)

let commit () =
  let read path = String.trim (In_channel.with_open_text path In_channel.input_all) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      match read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
      | exception Sys_error _ -> "unknown"
      | sha -> sha)
  | sha -> sha

let host () =
  Json.Obj
    [
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (commit ()));
    ]

(* --- run ----------------------------------------------------------- *)

let self_run_args ~workload ~seed ~seconds ~trace =
  [
    Sys.executable_name; "run"; "--workload"; workload; "--seed"; string_of_int seed;
    "--seconds"; string_of_int seconds; "--trace"; string_of_int trace;
  ]

(* The exit code of a run whose serve watchdog fired. *)
let wedged_exit = 3

(* Run this executable with [args]; its stdout, once it has exited 0. *)
let capture args =
  flush_all ();
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok out
  | status -> Error status

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "signal %d" n

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let time_setup make ~seed =
  let t0 = now_ns () in
  let inst = make ~seed in
  (inst, s_since t0)

let run ~workload ~seed ~seconds ~trace ~setup_only =
  let make, bypassed =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if setup_only then begin
    let inst, s = time_setup make ~seed in
    inst.teardown ();
    Printf.printf "%.17g\n" s;
    exit 0
  end;
  let spec = Json.of_file spec_file in
  let wanted = spec_metrics spec (if trace then "per_layer" else "end_to_end") in
  (* Fresh processes set up first, while this one holds no domain,
     thread or child of its own: at least two, and more while they stay
     cheap, so a set-up of a millisecond still gets a steady median. *)
  let child_setups =
    let one () =
      match
        capture (self_run_args ~workload ~seed ~seconds ~trace:0 @ [ "--setup-only" ])
      with
      | Ok out -> float_of_string (last_line out)
      | Error (Unix.WEXITED n) when n = wedged_exit ->
          raise (Serve_load.Wedged "a set-up child's watchdog fired")
      | Error s -> failwith ("set-up child failed: " ^ status_string s)
    in
    let t0 = now_ns () in
    let rec go acc =
      let n = List.length acc in
      if n >= min_setup_children && (n >= max_setup_children || s_since t0 >= 1.0)
      then acc
      else go (one () :: acc)
    in
    if trace then [] else go []
  in
  let inst, setup_s = time_setup make ~seed in
  let tracer = if trace then Some (Span.create ()) else None in
  let o =
    Fun.protect ~finally:inst.teardown (fun () ->
        inst.measure ~seconds:(float_of_int seconds) ~trace:tracer)
  in
  let produced =
    (if trace then [ m "setup.models_share" "share" (inst.models_s /. setup_s) ]
     else [ m "setup_s" "s" (Stats.median (setup_s :: child_setups)) ])
    @ o.metrics
  in
  let problems = ref [] in
  let values =
    List.map
      (fun w ->
        let layer = List.hd (String.split_on_char '.' w.s_name) in
        let v =
          match List.find_opt (fun x -> x.name = w.s_name) produced with
          | Some x when x.unit_ <> w.s_unit ->
              problems :=
                Printf.sprintf "%s measured in %s, BENCHMARK.json says %s" w.s_name
                  x.unit_ w.s_unit
                :: !problems;
              x.value
          | Some x -> x.value
          | None when List.mem layer bypassed -> 0.0
          | None ->
              problems := (w.s_name ^ " not measured") :: !problems;
              nan
        in
        if not (Float.is_finite v) then
          problems := Printf.sprintf "%s is not a number" w.s_name :: !problems;
        (w, v))
      wanted
  in
  List.iter
    (fun x ->
      if not (List.exists (fun w -> w.s_name = x.name) wanted) then
        problems := (x.name ^ " measured but not in BENCHMARK.json") :: !problems)
    produced;
  Option.iter
    (fun tr ->
      (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Printf.sprintf ".perfbench/trace-%s-%d.json" workload seed in
      Json.to_file path (Span.to_json tr);
      Printf.printf "spans: %s\n" path)
    tracer;
  let correct = o.correct && !problems = [] in
  Printf.printf "workload %s, seed %d, %d s, trace %b; host %s\n" workload seed seconds
    trace (Json.to_string (host ()));
  List.iter print_endline o.notes;
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) (List.rev !problems);
  List.iter (fun (w, v) -> Printf.printf "  %-30s %16.6g %s\n" w.s_name v w.s_unit) values;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (w, v) ->
                     (w.s_name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str w.s_unit) ]))
                   values) );
          ]));
  exit (if correct then 0 else 1)

(* --- sweep ----------------------------------------------------------- *)

let sweep ~runs ~out ~seconds ~append ~traced =
  let spec = Json.of_file spec_file in
  let e2e = spec_metrics spec "end_to_end" in
  let names = workload_names spec in
  let previous =
    if append && Sys.file_exists out then Json.to_list (Json.member "runs" (Json.of_file out))
    else []
  in
  let one ~workload ~seed ~trace =
    let t0 = now_ns () in
    let res =
      match capture (self_run_args ~workload ~seed ~seconds ~trace) with
      | Ok o -> Json.of_string (last_line o)
      | Error s ->
          Printf.eprintf "%s seed %d: %s\n%!" workload seed (status_string s);
          Json.Null
    in
    Printf.eprintf "%s seed %d trace %d: %.1f s\n%!" workload seed trace (s_since t0);
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("trace", Json.Num (float_of_int trace));
        ("result", res);
      ]
  in
  (* Seeds continue from the runs already in the set, so sets grown
     with --append never repeat a seed. *)
  let seed workload i = 1 + List.length (untraced_results previous workload) + i in
  let fresh =
    List.concat
      (List.init runs (fun i ->
           List.map (fun workload -> one ~workload ~seed:(seed workload i) ~trace:0) names))
    @
    if traced then List.map (fun workload -> one ~workload ~seed:(seed workload 0) ~trace:1) names
    else []
  in
  let all = previous @ fresh in
  Json.to_file out
    (Json.Obj
       [ ("host", host ()); ("seconds", Json.Num (float_of_int seconds)); ("runs", Json.Arr all) ]);
  Printf.printf "%-13s %-18s %6s %14s %8s %8s\n" "workload" "metric" "runs" "median"
    "spread" "bound";
  List.iter
    (fun workload ->
      let results = untraced_results all workload in
      List.iter
        (fun w ->
          let vs = List.map (metric_value w) results in
          let sp = Stats.spread vs in
          Printf.printf "%-13s %-18s %6d %14.6g %7.2f%% %7.1f%%%s\n" workload w.s_name
            (List.length vs) (Stats.median vs) (100.0 *. sp) (100.0 *. w.s_bound)
            (if w.s_name <> "setup_s" && not (sp < w.s_bound /. 3.0) then "  > bound/3" else ""))
        e2e;
      let bad =
        List.filter (fun r -> not (Json.to_bool (Json.member "correct" r))) results
      in
      if bad <> [] then Printf.printf "%-13s %d runs not correct\n" workload (List.length bad))
    names;
  Printf.printf "wrote %s\n" out

(* --- compare --------------------------------------------------------- *)

(* Pairs run i of the parent set with run i of the change set, per
   workload, and judges every end-to-end metric by the benchmark's
   rules: a gain needs at least 10 pairs, a 9-in-10 win rate and a
   median gap wider than the parent's interquartile range; a median
   worse by more than the bound is a regression; a spread wider than
   the bound leaves the metric unresolved unless every change run beats
   every parent run. setup_s is judged on its medians alone, as the
   benchmark's acceptance rule judges it: a set-up of a millisecond in
   a fresh process spreads by up to a quarter from run to run. *)
let compare_sets ~parent ~change =
  let spec = Json.of_file spec_file in
  let e2e = spec_metrics spec "end_to_end" in
  let runs set = Json.to_list (Json.member "runs" (Json.of_file set)) in
  let parent_runs = runs parent and change_runs = runs change in
  let failed_share rs =
    let sum k = List.fold_left (fun a r -> a +. Json.to_num (Json.member k r)) 0.0 rs in
    sum "failed" /. Float.max 1.0 (sum "attempted")
  in
  let bad = ref 0 in
  Printf.printf "%-13s %-18s %6s %14s %14s %8s %6s  %s\n" "workload" "metric" "pairs"
    "parent" "change" "change" "wins" "verdict";
  List.iter
    (fun workload ->
      let ra = untraced_results parent_runs workload
      and rb = untraced_results change_runs workload in
      let n = min (List.length ra) (List.length rb) in
      let take k l = List.filteri (fun i _ -> i < k) l in
      let ra = take n ra and rb = take n rb in
      if n = 0 then begin
        incr bad;
        Printf.printf "%-13s no runs to compare: unresolved\n" workload
      end
      else begin
        List.iter
          (fun w ->
            let a = List.map (metric_value w) ra and b = List.map (metric_value w) rb in
            let better x y = if w.s_lower then x < y else x > y in
            let wins = List.length (List.filter (fun (x, y) -> better y x) (List.combine a b)) in
            let ma = Stats.median a and mb = Stats.median b in
            let q1, _, q3 = Stats.quartiles a in
            let worse = (if w.s_lower then mb -. ma else ma -. mb) /. Float.abs ma in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
            let verdict =
              if n >= 10 && float_of_int wins >= 0.9 *. float_of_int n
                 && better mb ma && Float.abs (mb -. ma) > q3 -. q1
              then "improved"
              else if worse > w.s_bound then "regressed"
              else if
                n < 2
                || w.s_name <> "setup_s"
                   && (q3 -. q1) /. Float.abs ma > w.s_bound
                   && not all_better
              then
                "unresolved"
              else "unchanged"
            in
            if verdict = "regressed" || verdict = "unresolved" then incr bad;
            Printf.printf "%-13s %-18s %6d %14.6g %14.6g %+7.2f%% %3d/%-3d %s\n" workload
              w.s_name n ma mb (100.0 *. (mb -. ma) /. Float.abs ma) wins n verdict)
          e2e;
        let fa = failed_share ra and fb = failed_share rb in
        if fb > fa then begin
          incr bad;
          Printf.printf "%-13s failed share %.4g -> %.4g: regressed\n" workload fa fb
        end;
        if List.exists (fun r -> not (Json.to_bool (Json.member "correct" r))) rb then begin
          incr bad;
          Printf.printf "%-13s change has runs that are not correct\n" workload
        end
      end)
    (workload_names spec);
  exit (if !bad = 0 then 0 else 1)

(* --- smoke ------------------------------------------------------------- *)

(* One short window each of eval-single, compile-cold and serve-mf,
   untraced and traced, each in a fresh process: every run must be
   correct with no failed operation, and report exactly the metrics
   BENCHMARK.json names. *)
let smoke () =
  let spec = Json.of_file spec_file in
  let bad = ref 0 in
  List.iter
    (fun (workload, trace) ->
      let want =
        List.map (fun w -> w.s_name)
          (spec_metrics spec (if trace = 1 then "per_layer" else "end_to_end"))
      in
      let out, verdict =
        match capture (self_run_args ~workload ~seed:42 ~seconds:1 ~trace) with
        | Error s -> ("", status_string s)
        | Ok out -> (
            match Json.of_string (last_line out) with
            | exception Json.Parse_error _ -> (out, "no result line")
            | r ->
                let got =
                  match Json.member "metrics" r with Json.Obj l -> List.map fst l | _ -> []
                in
                ( out,
                  if not (Json.to_bool (Json.member "correct" r)) then "not correct"
                  else if Json.to_num (Json.member "failed" r) <> 0.0 then "failed operations"
                  else if got <> want then "metrics differ from BENCHMARK.json"
                  else "ok" ))
      in
      if verdict <> "ok" then begin
        incr bad;
        print_string out
      end;
      Printf.printf "smoke %-13s trace %d: %s\n%!" workload trace verdict)
    [
      ("eval-single", 0); ("eval-single", 1); ("compile-cold", 0); ("compile-cold", 1);
      ("serve-mf", 0); ("serve-mf", 1);
    ];
  exit (if !bad = 0 then 0 else 1)

(* --- CLI ------------------------------------------------------------- *)

open Cmdliner

let run_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed the workload's inputs are made from.") in
  let seconds = Arg.(value & opt int 10 & info [ "seconds" ] ~doc:"Length of the measured window.") in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: record spans and report the per-layer metrics instead.")
  in
  let setup_only =
    Arg.(value & flag & info [ "setup-only" ] ~doc:"Set up, tear down and print the set-up seconds.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Set up, measure and check one workload.")
    Term.(
      const (fun workload seed seconds trace setup_only ->
          (* set-up connects to the daemon too: the watchdog covers it *)
          try run ~workload ~seed ~seconds ~trace ~setup_only
          with Serve_load.Wedged why ->
            Printf.eprintf "perfbench: watchdog: %s\n" why;
            Stdlib.exit wedged_exit)
      $ workload $ seed $ seconds $ trace $ setup_only)

let sweep_cmd =
  let runs = Arg.(value & opt int 10 & info [ "runs" ] ~doc:"Runs per workload, one seed each.") in
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Result set to write.") in
  let seconds = Arg.(value & opt int 10 & info [ "seconds" ] ~doc:"Measured window per run.") in
  let append =
    Arg.(value & flag & info [ "append" ]
           ~doc:"Add the runs to an existing set (sweep two checkouts alternately, one run at a time, to make the pairs compare judges).")
  in
  let traced = Arg.(value & flag & info [ "traced" ] ~doc:"Also make one traced run per workload.") in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run every workload in fresh processes over successive seeds; write a result set and print each metric's spread.")
    Term.(
      const (fun runs out seconds append traced -> sweep ~runs ~out ~seconds ~append ~traced)
      $ runs $ out $ seconds $ append $ traced)

let compare_cmd =
  let parent = Arg.(required & pos 0 (some file) None & info [] ~docv:"PARENT") in
  let change = Arg.(required & pos 1 (some file) None & info [] ~docv:"CHANGE") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge a change's result set against its parent's.")
    Term.(const (fun parent change -> compare_sets ~parent ~change) $ parent $ change)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:"One short untraced and traced run each of eval-single, compile-cold and serve-mf: correct, and every BENCHMARK.json metric present.")
    Term.(const smoke $ const ())

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "perfbench" ~doc:"The repo benchmark.")
          [ run_cmd; sweep_cmd; compare_cmd; smoke_cmd ]))
