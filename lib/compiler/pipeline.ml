module E = Promise_core.Error
module Diag = Promise_core.Diag
module Lint = Promise_analysis.Driver

let ( let* ) = Result.bind

(* Nothing is cached; perfbench's compile-cold workload still calls
   [Cache.clear] before each compile. *)
module Cache = struct
  let clear () = ()
end

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                      *)
(* ------------------------------------------------------------------ *)

let compile kernel =
  let ssa = Promise_ir.Dsl.lower kernel in
  (* Fail closed: every frontend output goes through the SSA validator
     so a pattern-matcher bug surfaces as a diagnostic, not a
     miscompile. *)
  let* () =
    match Diag.first_error (Lint.ssa_passes ssa) with
    | Some d -> Error (Diag.to_error ~layer:"frontend" d)
    | None -> Ok ()
  in
  Result.map_error
    (E.of_string ~layer:"frontend")
    (Promise_ir.Pattern.match_function ssa)

let codegen g =
  let* program = Lower.program_of_graph g in
  (* Fail closed on the Task stream too: a shadowed X-REG store or an
     analog dwell past the leakage budget is a codegen bug, not a
     program to hand the machine. *)
  let* () =
    let tasks = program.Promise_isa.Program.tasks in
    match Diag.first_error (Lint.dataflow_passes tasks) with
    | Some d -> Error (Diag.to_error ~layer:"compiler" d)
    | None -> Ok ()
  in
  Ok program

(* ------------------------------------------------------------------ *)
(* Lints                                                                *)
(* ------------------------------------------------------------------ *)

let program_diags ?pm ?stats ?adc_units graph program =
  let _, ovf = Promise_analysis.Interval.analyze graph in
  let feasibility =
    match (pm, stats) with
    | Some pm, Some (s : Precision.stats) ->
        Promise_analysis.Interval.check_stats ~ea:s.Precision.ea
          ~ew:s.Precision.ew ~pm
    | _ -> []
  in
  ovf @ feasibility
  @ Lint.task_passes ?adc_units program.Promise_isa.Program.tasks

let lint_program ?pm ?stats ?adc_units ~target graph program =
  Lint.make ~target (program_diags ?pm ?stats ?adc_units graph program)

(* A frontend or backend failure is itself a diagnostic, so the lint
   reports on kernels the fail-closed [compile] would reject. *)
let lint_kernel ?adc_units ~target kernel =
  Lint.make ~target
    (match Promise_ir.Dsl.lower kernel with
    | exception Invalid_argument msg ->
        [ Diag.errorf ~code:"P-SSA-005" "%s" msg ]
    | ssa -> (
        let ssa_diags = Lint.ssa_passes ssa in
        if Diag.count_errors ssa_diags > 0 then ssa_diags
        else
          match Promise_ir.Pattern.match_function ssa with
          | Error msg ->
              ssa_diags
              @ [
                  Diag.errorf ~code:"P-OVF-004"
                    "kernel does not match the Figure-7 pattern: %s" msg;
                ]
          | Ok graph -> (
              match Lower.program_of_graph graph with
              | Ok program -> ssa_diags @ program_diags ?adc_units graph program
              | Error e ->
                  ssa_diags
                  @ snd (Promise_analysis.Interval.analyze graph)
                  @ [
                      Diag.errorf ~code:"P-OVF-004" "lowering failed: %s"
                        (E.to_string e);
                    ])))

type report = {
  graph : Promise_ir.Graph.t;
  program : Promise_isa.Program.t;
  binary : bytes;
  assembly : string;
  search_space : int;
}

let compile_to_binary kernel =
  let* graph = compile kernel in
  let* program = codegen graph in
  Ok
    {
      graph;
      program;
      binary = Promise_isa.Program.to_binary program;
      assembly = Promise_isa.Program.to_asm program;
      search_space =
        Swing_opt.search_space_size ~tasks:(Promise_ir.Graph.n_tasks graph);
    }

let run ?machine ?recovery ?pool ?kernel_mode kernel bindings =
  let* graph = compile kernel in
  Runtime.run ?machine ?recovery ?pool ?kernel_mode graph bindings

let run_batch ?machine ?recovery ?pool ?kernel_mode kernel bindings ~batch =
  let* graph = compile kernel in
  Runtime.run_batch ?machine ?recovery ?pool ?kernel_mode graph bindings ~batch
