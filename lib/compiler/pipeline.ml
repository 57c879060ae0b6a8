module E = Promise_core.Error
module Diag = Promise_core.Diag
module Lint = Promise_analysis.Driver

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Content-addressed compilation cache                                  *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  (* Keys are MD5 digests of the marshalled inputs (kernels, graphs and
     optimization parameters are pure data), so a cache hit means "same
     compilation problem" regardless of which sweep asked.  Only [Ok]
     results are stored; errors always recompute.  A single mutex
     guards all tables — compilation results are coarse enough that
     contention is irrelevant next to simulation cost. *)

  type stats = { hits : int; misses : int; entries : int }

  let lock = Mutex.create ()
  let hits = ref 0
  let misses = ref 0

  let frontend_tbl : (string, Promise_ir.Graph.t) Hashtbl.t = Hashtbl.create 64

  let codegen_tbl : (string, Promise_isa.Program.t) Hashtbl.t =
    Hashtbl.create 64

  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

  let clear () =
    Mutex.protect lock (fun () ->
        Hashtbl.reset frontend_tbl;
        Hashtbl.reset codegen_tbl;
        hits := 0;
        misses := 0)

  let stats () =
    Mutex.protect lock (fun () ->
        {
          hits = !hits;
          misses = !misses;
          entries = Hashtbl.length frontend_tbl + Hashtbl.length codegen_tbl;
        })

  (* [memo tbl key f] — serve [Ok] from [tbl], else compute.  The
     compute runs outside the lock: two domains racing on the same cold
     key duplicate work once rather than serializing all compilation. *)
  let memo tbl key f =
    let cached =
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v ->
              incr hits;
              Some v
          | None ->
              incr misses;
              None)
    in
    match cached with
    | Some v -> Ok v
    | None -> (
        match f () with
        | Ok v as ok ->
            Mutex.protect lock (fun () ->
                if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v);
            ok
        | Error _ as err -> err)
end

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                      *)
(* ------------------------------------------------------------------ *)

let compile_uncached kernel =
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

let compile kernel =
  Cache.memo Cache.frontend_tbl (Cache.digest kernel) (fun () ->
      compile_uncached kernel)

let codegen g =
  Cache.memo Cache.codegen_tbl (Cache.digest g) (fun () ->
      let* program = Lower.program_of_graph g in
      (* Fail closed on the Task stream too: a shadowed X-REG store or
         an analog dwell past the leakage budget is a codegen bug, not
         a program to hand the machine. *)
      let* () =
        let tasks = program.Promise_isa.Program.tasks in
        match Diag.first_error (Lint.dataflow_passes tasks) with
        | Some d -> Error (Diag.to_error ~layer:"compiler" d)
        | None -> Ok ()
      in
      Ok program)

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
