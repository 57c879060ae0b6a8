(* Multi-process sharded execution with worker supervision.

   Topology: the parent forks [workers] children, each holding one
   pipe pair ({!Ipc} frames both ways). The parent is the only
   scheduler: it assigns shard indices to idle workers, select()s on
   the worker pipes for heartbeats and results, enforces per-shard
   deadlines and heartbeat liveness by SIGKILLing the offender, and
   replaces dead workers (after a deterministic {!Retry} backoff)
   until a shard has burned through [max_restarts] — at which point
   the shard is quarantined as a typed [Error] slot and its siblings
   continue.

   Children never touch the parent's buffered channels: stdio is
   flushed before every fork and workers leave through [Unix._exit],
   so a fleet's stdout is exactly the parent's (the CI `cmp` of a
   chaos-run against a clean run depends on this). *)

module Sup = Supervisor

type chaos = No_chaos | Kill_one

type config = {
  workers : int;
  shard_timeout_ms : float option;
  liveness_timeout_ms : float option;
  heartbeat_ms : float;
  max_restarts : int;
  restart_backoff : Retry.policy;
  incidents : Incident.t;
  checkpoint_dir : string option;
  resume : bool;
  chaos : chaos;
  stop : Sup.stop;
  sleep : float -> unit;
}

let default_backoff =
  (* max_attempts only caps Retry.run, which the fleet does not use;
     it must merely exceed 1 for backoff_ms to engage *)
  match
    Retry.policy ~max_attempts:16 ~base_delay_ms:50.0 ~max_delay_ms:1000.0
      ~seed:0 ()
  with
  | Ok p -> p
  | Error _ -> assert false

let config ?(workers = 2) ?shard_timeout_ms ?liveness_timeout_ms
    ?(heartbeat_ms = 100.0) ?(max_restarts = 2)
    ?(restart_backoff = default_backoff) ?(incidents = Incident.null)
    ?checkpoint_dir ?(resume = false) ?(chaos = No_chaos) ?stop
    ?(sleep = Clock.sleep_ms) () =
  let fail msg ctx =
    Error.fail ~layer:"fleet" ~code:Error.Invalid_operand ~context:ctx msg
  in
  let bad_timeout = function
    | Some t when t <= 0.0 || Float.is_nan t -> true
    | _ -> false
  in
  if workers < 1 || workers > 64 then
    fail "workers must be in 1..64" [ ("workers", string_of_int workers) ]
  else if heartbeat_ms <= 0.0 || Float.is_nan heartbeat_ms then
    fail "heartbeat_ms must be > 0"
      [ ("heartbeat_ms", string_of_float heartbeat_ms) ]
  else if max_restarts < 0 then
    fail "max_restarts must be >= 0"
      [ ("max_restarts", string_of_int max_restarts) ]
  else if bad_timeout shard_timeout_ms then
    fail "shard_timeout_ms must be > 0"
      [ ("shard_timeout_ms", string_of_float (Option.get shard_timeout_ms)) ]
  else if bad_timeout liveness_timeout_ms then
    fail "liveness_timeout_ms must be > 0"
      [
        ("liveness_timeout_ms", string_of_float (Option.get liveness_timeout_ms));
      ]
  else
    Ok
      {
        workers;
        shard_timeout_ms;
        liveness_timeout_ms;
        heartbeat_ms;
        max_restarts;
        restart_backoff;
        incidents;
        checkpoint_dir;
        resume;
        chaos;
        stop = (match stop with Some s -> s | None -> Sup.never_stop ());
        sleep;
      }

(* ------------------------------------------------------------------ *)
(* Shard helpers                                                       *)
(* ------------------------------------------------------------------ *)

let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let shard_seed ~seed ~shard =
  let h =
    splitmix64
      (Int64.add (Int64.of_int seed)
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (shard + 1))))
  in
  Int64.to_int (Int64.shift_right_logical h 1)

let ranges ~shards ~items =
  if shards < 1 || items < 0 then invalid_arg "Fleet.ranges";
  let k = min shards items in
  Array.init k (fun i ->
      let lo = i * items / k and hi = (i + 1) * items / k in
      (lo, hi - lo))

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

type down = Assign of int | Quit
type 'r up = Beat | Shard_result of int * ('r, Error.t) result

(* ------------------------------------------------------------------ *)
(* The worker (child) side                                             *)
(* ------------------------------------------------------------------ *)

let capture_shard_exn shard exn =
  let bt = String.trim (Printexc.get_backtrace ()) in
  let extra =
    match exn with
    | Pool.Item_failure { index; backtrace; _ } ->
        ("pool-item", string_of_int index)
        :: (if backtrace = "" then [] else [ ("item-backtrace", backtrace) ])
    | _ -> []
  in
  Error.make ~layer:"fleet-worker" ~code:Error.Internal
    ~context:
      (("shard", string_of_int shard)
      :: ("exn", Printexc.to_string exn)
      :: ((if bt = "" then [] else [ ("backtrace", bt) ]) @ extra))
    "shard function raised"

(* Runs in the forked child and never returns: the heartbeat domain
   beats until the main loop leaves, and the only exit is _exit (an
   [exit] would flush the parent's buffered channels a second time). *)
let worker_child ~heartbeat_ms ~from_parent ~to_parent ~f =
  let wlock = Mutex.create () in
  let stopping = Atomic.make false in
  let (_ : unit Domain.t) =
    Domain.spawn (fun () ->
        while not (Atomic.get stopping) do
          Clock.sleep_ms heartbeat_ms;
          if not (Atomic.get stopping) then
            ignore
              (Mutex.protect wlock (fun () -> Ipc.write to_parent (Beat : _ up)))
        done)
  in
  let rec loop () =
    match (Ipc.read from_parent : (down option, Error.t) result) with
    | Ok (Some (Assign shard)) -> (
        let result =
          try f ~shard with exn -> Error (capture_shard_exn shard exn)
        in
        match
          Mutex.protect wlock (fun () ->
              Ipc.write to_parent (Shard_result (shard, result)))
        with
        | Ok () -> loop ()
        | Error _ -> () (* parent gone *))
    | Ok (Some Quit) | Ok None | Error _ -> ()
  in
  loop ();
  Atomic.set stopping true;
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* The parent side                                                     *)
(* ------------------------------------------------------------------ *)

type worker_slot = {
  slot : int;
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  mutable shard : int option;
  mutable started_ns : int64;
  mutable beat_ns : int64;
  mutable alive : bool;
}

let ms_since t = Int64.to_float (Int64.sub (Clock.monotonic_ns ()) t) /. 1e6

let status_string = function
  | Unix.WEXITED n -> "exit:" ^ string_of_int n
  | Unix.WSIGNALED s ->
      "signal:"
      ^
      if s = Sys.sigkill then "sigkill"
      else if s = Sys.sigterm then "sigterm"
      else if s = Sys.sigsegv then "sigsegv"
      else if s = Sys.sigint then "sigint"
      else string_of_int s
  | Unix.WSTOPPED s -> "stopped:" ^ string_of_int s

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn_worker cfg ~live ~slot ~f =
  let p2c_r, p2c_w = Unix.pipe ~cloexec:false () in
  let c2p_r, c2p_w = Unix.pipe ~cloexec:false () in
  (* the child inherits the parent's buffered channels: flush now so
     it cannot carry (and never re-emit) half-written output *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         close_quiet p2c_w;
         close_quiet c2p_r;
         List.iter
           (fun w ->
             close_quiet w.to_w;
             close_quiet w.from_w)
           live;
         worker_child ~heartbeat_ms:cfg.heartbeat_ms ~from_parent:p2c_r
           ~to_parent:c2p_w ~f
       with _ -> ());
      Unix._exit 1
  | pid ->
      close_quiet p2c_r;
      close_quiet c2p_w;
      Incident.record cfg.incidents Incident.Worker_spawn
        [ ("pid", string_of_int pid); ("slot", string_of_int slot) ];
      let now = Clock.monotonic_ns () in
      {
        slot;
        pid;
        to_w = p2c_w;
        from_w = c2p_r;
        shard = None;
        started_ns = now;
        beat_ns = now;
        alive = true;
      }

(* ------------------------------------------------------------------ *)
(* Outcome types                                                       *)
(* ------------------------------------------------------------------ *)

type shard_timing = {
  t_attempts : int;
  t_resumed : bool;
}

type summary = {
  shards : int;
  workers : int;
  restarts : int;
  resumed : int;
  quarantined : int;
  total_ms : float;
  timings : shard_timing array;
}

type 'r outcome =
  | Fleet_done of ('r, Error.t) result array * summary
  | Fleet_interrupted of { completed : int; total : int }
  | Fleet_rejected of Error.t

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let shard_path dir shard = Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" shard)

let shard_digest ~digest ~shards ~shard =
  Checkpoint.digest_of_config ~kind:"fleet-shard"
    [ digest; string_of_int shards; string_of_int shard ]

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error.fail ~layer:"fleet" ~code:Error.Invalid_operand
        ~context:[ ("dir", dir) ]
        ("cannot create checkpoint dir: " ^ Unix.error_message err)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run ?(on_shard_done = fun ~shard:_ ~completed:_ ~total:_ -> ())
    (cfg : config) ~digest ~shards ~f =
  if shards < 1 then
    Fleet_rejected
      (Error.make ~layer:"fleet" ~code:Error.Invalid_operand
         ~context:[ ("shards", string_of_int shards) ]
         "shards must be >= 1")
  else begin
    let inc = cfg.incidents in
    let results = Array.make shards None in
    let deaths = Array.make shards 0 in
    let resumed_flag = Array.make shards false in
    let restarts = ref 0 in
    let quarantined = ref 0 in
    let done_live = ref 0 in
    let count_done () =
      Array.fold_left (fun n o -> if o = None then n else n + 1) 0 results
    in
    (* resume: load per-shard checkpoints before forking anything *)
    let load_result =
      match cfg.checkpoint_dir with
      | None -> Ok ()
      | Some dir -> (
          match ensure_dir dir with
          | Error e -> Error e
          | Ok () ->
              if not cfg.resume then Ok ()
              else begin
                let err = ref None in
                for s = 0 to shards - 1 do
                  if !err = None then
                    let path = shard_path dir s in
                    if Checkpoint.exists path then
                      match
                        Checkpoint.load ~path
                          ~config_digest:(shard_digest ~digest ~shards ~shard:s)
                      with
                      | Ok r ->
                          results.(s) <- Some (Ok r);
                          resumed_flag.(s) <- true
                      | Error e ->
                          Incident.record inc Incident.Checkpoint_stale
                            [ ("path", path); ("error", Error.to_string e) ];
                          err := Some e
                done;
                match !err with None -> Ok () | Some e -> Error e
              end)
    in
    match load_result with
    | Error e -> Fleet_rejected e
    | Ok () ->
        let resumed = count_done () in
        if resumed > 0 then
          Incident.record inc Incident.Checkpoint_resume
            [ ("what", "fleet"); ("resumed", string_of_int resumed) ];
        let pending = Queue.create () in
        for s = 0 to shards - 1 do
          if results.(s) = None then Queue.push s pending
        done;
        let n_workers = max 1 (min cfg.workers (max 1 (Queue.length pending))) in
        Incident.record inc Incident.Run_start
          [
            ("what", "fleet");
            ("shards", string_of_int shards);
            ("workers", string_of_int n_workers);
            ("resumed", string_of_int resumed);
          ];
        let t0 = Clock.monotonic_ns () in
        let finish_summary () =
          {
            shards;
            workers = n_workers;
            restarts = !restarts;
            resumed;
            quarantined = !quarantined;
            total_ms = ms_since t0;
            timings =
              Array.init shards (fun s ->
                  {
                    t_attempts = deaths.(s) + 1;
                    t_resumed = resumed_flag.(s);
                  });
          }
        in
        if Queue.is_empty pending then begin
          (* everything came from checkpoints, which only ever hold Ok
             payloads — the run is fully successful, drop them *)
          (match cfg.checkpoint_dir with
          | Some dir ->
              for s = 0 to shards - 1 do
                Checkpoint.remove (shard_path dir s)
              done
          | None -> ());
          Incident.record inc Incident.Run_end
            [ ("what", "fleet"); ("shards", string_of_int shards) ];
          Fleet_done
            (Array.map (function Some r -> r | None -> assert false) results,
             finish_summary ())
        end
        else begin
          (* worker death must surface as EPIPE/EOF, not kill the parent;
             workers fork inside this window and inherit the ignored
             SIGPIPE *)
          let outcome =
            Ipc.with_sigpipe_ignored (fun () ->
              let workers = Array.make n_workers None in
              let live_workers () =
                Array.to_list workers
                |> List.filter_map (fun o ->
                       match o with Some w when w.alive -> Some w | _ -> None)
              in
              let spawn_into slot =
                workers.(slot) <-
                  Some (spawn_worker cfg ~live:(live_workers ()) ~slot ~f)
              in
              (* a stop raised before the run forks nothing; the loop below
                 reports the interrupt *)
              if not (Sup.stop_requested cfg.stop) then
                for slot = 0 to n_workers - 1 do
                  spawn_into slot
                done;
              let chaos_fired = ref false in
              let record_done s res ms pid =
                if results.(s) = None then begin
                  results.(s) <- Some res;
                  incr done_live;
                  Incident.record inc Incident.Shard_done
                    [
                      ("shard", string_of_int s);
                      ("ms", Printf.sprintf "%.1f" ms);
                      ("pid", string_of_int pid);
                      ("attempts", string_of_int (deaths.(s) + 1));
                    ];
                  (match (cfg.checkpoint_dir, res) with
                  | Some dir, Ok r -> (
                      match
                        Checkpoint.save ~path:(shard_path dir s)
                          ~config_digest:(shard_digest ~digest ~shards ~shard:s)
                          r
                      with
                      | Ok () ->
                          Incident.record inc Incident.Checkpoint_write
                            [
                              ("path", shard_path dir s);
                              ("shards_done", string_of_int (count_done ()));
                              ("total", string_of_int shards);
                            ]
                      | Error e ->
                          (* losing persistence degrades, it does not abort *)
                          Incident.record inc Incident.Degradation
                            [
                              ("what", "shard checkpoint write failed");
                              ("error", Error.to_string e);
                            ])
                  | _ -> ());
                  on_shard_done ~shard:s ~completed:(count_done ()) ~total:shards
                end
              in
              let handle_death w ~reason =
                if w.alive then begin
                  w.alive <- false;
                  close_quiet w.to_w;
                  close_quiet w.from_w;
                  let status =
                    match Unix.waitpid [] w.pid with
                    | _, st -> status_string st
                    | exception Unix.Unix_error _ -> "unknown"
                  in
                  incr restarts;
                  Incident.record inc Incident.Worker_death
                    ([
                       ("pid", string_of_int w.pid);
                       ("slot", string_of_int w.slot);
                       ("status", status);
                       ("reason", reason);
                     ]
                    @
                    match w.shard with
                    | Some s -> [ ("shard", string_of_int s) ]
                    | None -> []);
                  (match w.shard with
                  | None -> ()
                  | Some s ->
                      w.shard <- None;
                      deaths.(s) <- deaths.(s) + 1;
                      if deaths.(s) > cfg.max_restarts then begin
                        record_done s
                          (Error
                             (Error.make ~layer:"fleet" ~code:Error.Retry_exhausted
                                ~context:
                                  [
                                    ("shard", string_of_int s);
                                    ("attempts", string_of_int deaths.(s));
                                    ("last-status", status);
                                    ("reason", reason);
                                  ]
                                "shard workers died repeatedly; shard quarantined"))
                          0.0 w.pid;
                        incr quarantined;
                        Incident.record inc Incident.Quarantine
                          [
                            ("shard", string_of_int s);
                            ("attempts", string_of_int deaths.(s));
                          ]
                      end
                      else begin
                        Queue.push s pending;
                        let delay =
                          Retry.backoff_ms cfg.restart_backoff ~attempt:deaths.(s)
                        in
                        Incident.record inc Incident.Retry
                          [
                            ("shard", string_of_int s);
                            ("attempt", string_of_int deaths.(s));
                            ("delay_ms", Printf.sprintf "%.1f" delay);
                          ];
                        cfg.sleep delay
                      end);
                  if count_done () < shards && not (Sup.stop_requested cfg.stop)
                  then spawn_into w.slot
                end
              in
              let kill_worker w ~reason =
                (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
                handle_death w ~reason
              in
              let assign_idle () =
                Array.iter
                  (fun o ->
                    match o with
                    | Some w when w.alive && w.shard = None -> (
                        if not (Queue.is_empty pending) then
                          let s = Queue.pop pending in
                          match Ipc.write w.to_w (Assign s) with
                          | Ok () ->
                              let now = Clock.monotonic_ns () in
                              w.shard <- Some s;
                              w.started_ns <- now;
                              w.beat_ns <- now
                          | Error _ ->
                              Queue.push s pending;
                              handle_death w ~reason:"assign-write-failed")
                    | _ -> ())
                  workers
              in
              let receive () =
                let fds = List.map (fun w -> w.from_w) (live_workers ()) in
                if fds = [] then ()
                else
                  let readable =
                    match Unix.select fds [] [] 0.05 with
                    | r, _, _ -> r
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
                  in
                  List.iter
                    (fun fd ->
                      match
                        List.find_opt
                          (fun w -> w.alive && w.from_w == fd)
                          (live_workers ())
                      with
                      | None -> ()
                      | Some w -> (
                          match
                            (Ipc.read w.from_w : (_ up option, Error.t) result)
                          with
                          | Ok (Some Beat) -> w.beat_ns <- Clock.monotonic_ns ()
                          | Ok (Some (Shard_result (s, res))) ->
                              w.beat_ns <- Clock.monotonic_ns ();
                              record_done s res (ms_since w.started_ns) w.pid;
                              w.shard <- None
                          | Ok None -> handle_death w ~reason:"eof"
                          | Error _ -> handle_death w ~reason:"read-error"))
                    readable
              in
              let enforce_deadlines () =
                Array.iter
                  (fun o ->
                    match o with
                    | Some w when w.alive -> (
                        (match (w.shard, cfg.shard_timeout_ms) with
                        | Some s, Some tmo when ms_since w.started_ns > tmo ->
                            Incident.record inc Incident.Timeout
                              [
                                ("shard", string_of_int s);
                                ("pid", string_of_int w.pid);
                                ( "elapsed_ms",
                                  Printf.sprintf "%.1f" (ms_since w.started_ns) );
                                ("timeout_ms", Printf.sprintf "%.1f" tmo);
                                ("phase", "shard-deadline");
                              ];
                            kill_worker w ~reason:"shard-deadline"
                        | _ -> ());
                        if w.alive then
                          match cfg.liveness_timeout_ms with
                          | Some lv when ms_since w.beat_ns > lv ->
                              Incident.record inc Incident.Timeout
                                [
                                  ("pid", string_of_int w.pid);
                                  ( "silent_ms",
                                    Printf.sprintf "%.1f" (ms_since w.beat_ns) );
                                  ("timeout_ms", Printf.sprintf "%.1f" lv);
                                  ("phase", "heartbeat-liveness");
                                ];
                              kill_worker w ~reason:"heartbeat-liveness"
                          | _ -> ())
                    | _ -> ())
                  workers
              in
              let maybe_chaos () =
                if cfg.chaos = Kill_one && not !chaos_fired then
                  match
                    List.find_opt (fun w -> w.shard <> None) (live_workers ())
                  with
                  | Some w when !done_live >= 1 || shards = 1 ->
                      chaos_fired := true;
                      Incident.record inc Incident.Chaos
                        ([ ("pid", string_of_int w.pid) ]
                        @
                        match w.shard with
                        | Some s -> [ ("shard", string_of_int s) ]
                        | None -> []);
                      kill_worker w ~reason:"chaos-kill-one"
                  | _ -> ()
              in
              let shutdown_workers ~graceful =
                Array.iter
                  (fun o ->
                    match o with
                    | Some w when w.alive ->
                        if graceful then ignore (Ipc.write w.to_w Quit)
                        else (
                          try Unix.kill w.pid Sys.sigkill
                          with Unix.Unix_error _ -> ());
                        close_quiet w.to_w;
                        close_quiet w.from_w;
                        (try ignore (Unix.waitpid [] w.pid)
                         with Unix.Unix_error _ -> ());
                        w.alive <- false
                    | _ -> ())
                  workers
              in
              let interrupted () =
                Incident.record inc Incident.Signal
                  [
                    ( "signal",
                      match Sup.stop_signal cfg.stop with
                      | Some n -> Sup.signal_name n
                      | None -> "request" );
                    ("shards_done", string_of_int (count_done ()));
                    ("total", string_of_int shards);
                  ];
                shutdown_workers ~graceful:false;
                `Interrupted
              in
              let rec loop () =
                if Sup.stop_requested cfg.stop then interrupted ()
                else if count_done () >= shards then begin
                  shutdown_workers ~graceful:true;
                  `Done
                end
                else begin
                  assign_idle ();
                  receive ();
                  enforce_deadlines ();
                  maybe_chaos ();
                  loop ()
                end
              in
              loop ())
          in
          match outcome with
          | `Interrupted ->
              Fleet_interrupted { completed = count_done (); total = shards }
          | `Done ->
              (* a fully-Ok fleet owes nothing to a resume; any Error
                 slot keeps its siblings' checkpoints so a later
                 --resume retries only the failures *)
              let all_ok =
                Array.for_all
                  (function Some (Ok _) -> true | _ -> false)
                  results
              in
              (match cfg.checkpoint_dir with
              | Some dir when all_ok ->
                  for s = 0 to shards - 1 do
                    Checkpoint.remove (shard_path dir s)
                  done
              | _ -> ());
              Incident.record inc Incident.Run_end
                [
                  ("what", "fleet");
                  ("shards", string_of_int shards);
                  ("restarts", string_of_int !restarts);
                  ("quarantined", string_of_int !quarantined);
                ];
              Fleet_done
                ( Array.map
                    (function Some r -> r | None -> assert false)
                    results,
                  finish_summary () )
        end
  end

module For_tests = struct
  let shard_seed = shard_seed
end
