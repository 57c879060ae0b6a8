type 'a t = {
  kind : string;
  digest : string;
  labels : string array;
  run : int -> 'a;
}

type 'r ending =
  | Done of 'r
  | Interrupted of { completed : int; total : int }
  | Rejected of Error.t

type 'a outcome = (('a, Error.t) result array * Fleet.summary option) ending

(* The two executors persist different payloads: [run_local] one
   result-option array, [run_fleet] one result list per shard. Each
   folds its own payload-format tag into the digest it hands on, so a
   file written by the other executor, or in an older payload layout
   under the same configuration digest, is refused as stale instead of
   being unmarshalled at the wrong type. Bump a tag whenever its
   payload type changes. *)
let tagged_digest ~format w =
  Checkpoint.digest_of_config ~kind:format [ w.kind; w.digest ]

let count_some arr =
  Array.fold_left (fun n o -> if o = None then n else n + 1) 0 arr

let rec take k = function
  | [] -> ([], [])
  | l when k = 0 -> ([], l)
  | x :: tl ->
      let a, b = take (k - 1) tl in
      (x :: a, b)

let run_local ?(pool = Pool.sequential)
    ?(on_checkpoint = fun ~completed:_ ~total:_ -> ())
    (session : Supervisor.session) w =
  let cfg = session.Supervisor.sup in
  let inc = cfg.Supervisor.incidents in
  let total = Array.length w.labels in
  let digest = tagged_digest ~format:"workload-local/1" w in
  let progress results =
    [
      ("items_done", string_of_int (count_some results));
      ("total", string_of_int total);
    ]
  in
  let loaded =
    match session.Supervisor.checkpoint with
    | Some path when session.Supervisor.resume && Checkpoint.exists path -> (
        match
          (Checkpoint.load ~path ~config_digest:digest
            : ((_, Error.t) result option array, Error.t) result)
        with
        | Ok p when Array.length p = total ->
            Incident.record inc Incident.Checkpoint_resume
              (("path", path) :: progress p);
            Ok p
        | Ok _ ->
            Error
              (Error.make ~layer:"workload" ~code:Error.Stale_checkpoint
                 ~context:[ ("path", path) ]
                 "checkpoint item count does not match this workload")
        | Error e ->
            Incident.record inc Incident.Checkpoint_stale
              [ ("error", Error.to_string e) ];
            Error e)
    | _ -> Ok (Array.make total None)
  in
  match loaded with
  | Error e -> Rejected e
  | Ok results ->
      let save () =
        match session.Supervisor.checkpoint with
        | None -> ()
        | Some path -> (
            match Checkpoint.save ~path ~config_digest:digest results with
            | Ok () ->
                Incident.record inc Incident.Checkpoint_write
                  (("path", path) :: progress results);
                on_checkpoint ~completed:(count_some results) ~total
            | Error e ->
                (* losing persistence degrades, it does not abort *)
                Incident.record inc Incident.Degradation
                  [
                    ("what", "checkpoint write failed");
                    ("error", Error.to_string e);
                  ])
      in
      let interrupted () =
        save ();
        Incident.record inc Incident.Signal
          (( "signal",
             match Supervisor.stop_signal session.Supervisor.stop with
             | Some n -> Supervisor.signal_name n
             | None -> "request" )
          :: progress results);
        Interrupted { completed = count_some results; total }
      in
      Incident.record inc Incident.Run_start
        [
          ("what", w.kind);
          ("total", string_of_int total);
          ("jobs", string_of_int (Pool.jobs pool));
          ("resumed", string_of_int (count_some results));
        ];
      (* one pool width per chunk keeps every domain busy while bounding
         how much work a crash or SIGTERM can lose *)
      let chunk_size = max 1 (Pool.jobs pool) in
      let rec loop pending =
        if Supervisor.stop_requested session.Supervisor.stop then interrupted ()
        else
          match pending with
          | [] ->
              Incident.record inc Incident.Run_end
                [ ("what", w.kind); ("total", string_of_int total) ];
              Option.iter Checkpoint.remove session.Supervisor.checkpoint;
              Done (Array.map Option.get results, None)
          | _ ->
              let chunk, rest = take chunk_size pending in
              let carr = Array.of_list chunk in
              let out =
                Supervisor.map_result ~pool cfg
                  ~label:(fun k -> w.labels.(carr.(k)))
                  (fun i -> Ok (w.run i))
                  chunk
              in
              List.iter2 (fun i r -> results.(i) <- Some r) chunk out;
              save ();
              loop rest
      in
      loop (List.filter (fun i -> results.(i) = None) (List.init total Fun.id))

let empty_summary =
  {
    Fleet.shards = 0;
    workers = 0;
    restarts = 0;
    resumed = 0;
    quarantined = 0;
    total_ms = 0.0;
    timings = [||];
  }

let run_fleet ?on_shard_done cfg ~shards w =
  let total = Array.length w.labels in
  if total = 0 then Done ([||], Some empty_summary)
  else begin
    let ranges = Fleet.ranges ~shards ~items:total in
    (* the plain policy: one attempt, an escaping exception becomes the
       same typed error [run_local] reports; the fleet supplies the
       deadlines and restarts *)
    let sup = Supervisor.config () in
    let f ~shard =
      let off, len = ranges.(shard) in
      Ok
        (List.init len (fun k ->
             let i = off + k in
             Supervisor.supervise sup ~label:w.labels.(i) (fun ~attempt:_ ->
                 Ok (w.run i))))
    in
    match
      Fleet.run ?on_shard_done cfg
        ~digest:(tagged_digest ~format:"workload-fleet/1" w)
        ~shards:(Array.length ranges) ~f
    with
    | Fleet.Fleet_rejected e -> Rejected e
    | Fleet.Fleet_interrupted { completed; total } ->
        Interrupted { completed; total }
    | Fleet.Fleet_done (slots, summary) ->
        (* shard-major expansion: a quarantined shard becomes one Error
           per item it covered *)
        let items sh = function
          | Ok rs -> rs
          | Error e ->
              List.init (snd ranges.(sh)) (fun _ ->
                  Error (Error.with_context e [ ("shard", string_of_int sh) ]))
        in
        Done
          ( Array.of_list (List.concat (Array.to_list (Array.mapi items slots))),
            Some summary )
  end

type 'a job = {
  workload : 'a t;
  header : Format.formatter -> unit;
  render :
    Format.formatter -> ('a, Error.t) result array -> (unit, string) result;
}

let run_job ppf execute job =
  job.header ppf;
  match execute job.workload with
  | Done (results, _) -> Done (job.render ppf results)
  | Interrupted { completed; total } -> Interrupted { completed; total }
  | Rejected e -> Rejected e
