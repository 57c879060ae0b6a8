module E = Promise_core.Error

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
     contention is irrelevant next to simulation cost.

     The cache is optionally bounded: a long-lived serving daemon
     compiles an open-ended stream of models, so without a bound the
     tables grow monotonically for the life of the process.  With
     [set_capacity (Some n)], each table keeps at most [n] entries and
     evicts its least-recently-used one on insert (every hit refreshes
     recency); an evicted model simply recompiles on its next use —
     correctness never depends on residency. *)

  type stats = { hits : int; misses : int; entries : int; evictions : int }

  let lock = Mutex.create ()
  let enabled = ref true
  let hits = ref 0
  let misses = ref 0
  let evictions = ref 0

  let capacity_ref : int option ref = ref None

  (* LRU recency: a global monotonic tick; each entry stores the tick
     of its last hit/insert, and eviction scans for the minimum.  The
     scan is O(table size), bounded by the capacity itself — trivial
     next to a compilation. *)
  let tick = ref 0

  let frontend_tbl : (string, Promise_ir.Graph.t * int ref) Hashtbl.t =
    Hashtbl.create 64

  let optimize_tbl : (string, (Promise_ir.Graph.t * int) * int ref) Hashtbl.t =
    Hashtbl.create 64

  let codegen_tbl : (string, Promise_isa.Program.t * int ref) Hashtbl.t =
    Hashtbl.create 64

  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

  let set_enabled b = Mutex.protect lock (fun () -> enabled := b)
  let is_enabled () = Mutex.protect lock (fun () -> !enabled)

  let set_capacity c =
    (match c with
    | Some n when n < 1 ->
        invalid_arg "Pipeline.Cache.set_capacity: capacity must be >= 1"
    | _ -> ());
    Mutex.protect lock (fun () -> capacity_ref := c)

  let capacity () = Mutex.protect lock (fun () -> !capacity_ref)

  let clear () =
    Mutex.protect lock (fun () ->
        Hashtbl.reset frontend_tbl;
        Hashtbl.reset optimize_tbl;
        Hashtbl.reset codegen_tbl;
        hits := 0;
        misses := 0;
        evictions := 0)

  let stats () =
    Mutex.protect lock (fun () ->
        {
          hits = !hits;
          misses = !misses;
          evictions = !evictions;
          entries =
            Hashtbl.length frontend_tbl
            + Hashtbl.length optimize_tbl
            + Hashtbl.length codegen_tbl;
        })

  (* Must be called with [lock] held. *)
  let evict_lru tbl =
    let victim = ref None in
    Hashtbl.iter
      (fun key (_, last) ->
        match !victim with
        | Some (_, best) when !last >= best -> ()
        | _ -> victim := Some (key, !last))
      tbl;
    match !victim with
    | Some (key, _) ->
        Hashtbl.remove tbl key;
        incr evictions
    | None -> ()

  (* [memo tbl key f] — serve [Ok] from [tbl], else compute.  The
     compute runs outside the lock: two domains racing on the same cold
     key duplicate work once rather than serializing all compilation. *)
  let memo tbl key f =
    let cached =
      Mutex.protect lock (fun () ->
          if not !enabled then None
          else
            match Hashtbl.find_opt tbl key with
            | Some (v, last) ->
                incr hits;
                incr tick;
                last := !tick;
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
                if !enabled && not (Hashtbl.mem tbl key) then begin
                  (match !capacity_ref with
                  | Some cap ->
                      while Hashtbl.length tbl >= cap do
                        evict_lru tbl
                      done
                  | None -> ());
                  incr tick;
                  Hashtbl.add tbl key (v, ref !tick)
                end);
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
    match
      Promise_core.Diag.first_error
        (Promise_analysis.Ssa_check.validate ssa
        @ Promise_analysis.Liveness.check ssa
        @ Promise_analysis.Regpressure.check_function ssa)
    with
    | Some d -> Error (Promise_core.Diag.to_error ~layer:"frontend" d)
    | None -> Ok ()
  in
  Result.map_error
    (E.of_string ~layer:"frontend")
    (Promise_ir.Pattern.match_function ssa)

let compile kernel =
  Cache.memo Cache.frontend_tbl (Cache.digest kernel) (fun () ->
      compile_uncached kernel)

let optimize ?guard_bits g ~stats ~pm =
  Cache.memo Cache.optimize_tbl
    (Cache.digest (g, guard_bits, stats, pm))
    (fun () ->
      Result.map_error
        (E.of_string ~layer:"optimizer")
        (Swing_opt.optimize_graph ?guard_bits g ~stats ~pm))

let codegen g =
  Cache.memo Cache.codegen_tbl (Cache.digest g) (fun () ->
      let* program = Lower.program_of_graph g in
      (* Fail closed on the Task stream too: a shadowed X-REG store or
         an analog dwell past the leakage budget is a codegen bug, not
         a program to hand the machine. *)
      let* () =
        let tasks = program.Promise_isa.Program.tasks in
        match
          Promise_core.Diag.first_error
            (Promise_analysis.Liveness.check_program tasks
            @ Promise_analysis.Timing_check.check_program tasks)
        with
        | Some d -> Error (Promise_core.Diag.to_error ~layer:"compiler" d)
        | None -> Ok ()
      in
      Ok program)

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
