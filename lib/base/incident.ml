type kind =
  | Timeout
  | Retry
  | Quarantine
  | Degradation
  | Checkpoint_write
  | Checkpoint_resume
  | Checkpoint_stale
  | Signal
  | Run_start
  | Run_end
  | Worker_spawn
  | Worker_death
  | Shard_done
  | Chaos
  | Admission_reject
  | Breaker
  | Bist
  | Sink_degraded

let kind_name = function
  | Timeout -> "timeout"
  | Retry -> "retry"
  | Quarantine -> "quarantine"
  | Degradation -> "degradation"
  | Checkpoint_write -> "checkpoint-write"
  | Checkpoint_resume -> "checkpoint-resume"
  | Checkpoint_stale -> "checkpoint-stale"
  | Signal -> "signal"
  | Run_start -> "run-start"
  | Run_end -> "run-end"
  | Worker_spawn -> "worker-spawn"
  | Worker_death -> "worker-death"
  | Shard_done -> "shard-done"
  | Chaos -> "chaos"
  | Admission_reject -> "admission-reject"
  | Breaker -> "breaker"
  | Bist -> "bist"
  | Sink_degraded -> "sink-degraded"

type file_sink = {
  path : string;
  max_bytes : int;
  mutable oc : out_channel;
  mutable size : int;  (** bytes in the live file *)
  mutable degraded : bool;
      (** the sink errored (e.g. ENOSPC); acting as a counting null
          sink until a write succeeds again *)
  mutable dropped : int;  (** lines lost while degraded *)
}

type sink = Null | File of file_sink | Buf of Buffer.t

type t = {
  mutex : Mutex.t;
  mutable sink : sink;
  mutable seq : int;
  opened_ns : int64;
}

let make sink =
  { mutex = Mutex.create (); sink; seq = 0; opened_ns = Clock.monotonic_ns () }

let null = make Null

(* A retry storm in a week-long fleet run must not fill the disk: the
   file sink rotates once it crosses the cap, keeping one [.1] backup
   (so at most ~2 x max_bytes on disk). 64 MiB of JSONL is far beyond
   any legitimate supervision trail. *)
let default_max_bytes = 64 * 1024 * 1024

let open_sink path =
  open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path

let to_file ?(max_bytes = default_max_bytes) path =
  match open_sink path with
  | oc ->
      Ok
        (make
           (File
              {
                path;
                max_bytes = max max_bytes 1;
                oc;
                size = out_channel_length oc;
                degraded = false;
                dropped = 0;
              }))
  | exception Sys_error msg ->
      Error.fail ~layer:"incident" ~code:Error.Invalid_operand
        ~context:[ ("path", path) ]
        ("cannot open incident log: " ^ msg)

let to_buffer buf = make (Buf buf)

(* Minimal JSON string escaping: the fields are short ASCII-ish
   diagnostics, but junk must still not break the line format. *)
let iso8601_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Render one line, consuming a sequence number. Must run under the
   sink mutex. *)
let render t kind fields =
  t.seq <- t.seq + 1;
  let b = Buffer.create 128 in
  Printf.bprintf b "{\"seq\":%d,\"t_ms\":%.1f,\"wall\":\"%s\",\"kind\":\"%s\""
    t.seq
    (Clock.elapsed_ms ~since:t.opened_ns)
    (iso8601_utc ()) (kind_name kind);
  List.iter
    (fun (k, v) ->
      Printf.bprintf b ",\"%s\":\"%s\"" (Diag.json_escape k)
        (Diag.json_escape v))
    fields;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* One attempt to land [line] in the file, rotating first if needed.
   [false] = the sink is sick (ENOSPC and friends) — the caller decides
   what the outage means; this never raises. *)
let file_write f line =
  try
    (match Failpoint.check "incident.write" with
    | Some Failpoint.Fail -> raise (Sys_error "injected ENOSPC")
    | Some (Failpoint.Delay ns) -> Unix.sleepf (Int64.to_float ns /. 1e9)
    | Some Failpoint.Interrupt | None -> ());
    if f.size > 0 && f.size + String.length line > f.max_bytes then begin
      (match Failpoint.check "incident.rotate" with
      | Some Failpoint.Fail -> raise (Sys_error "injected rotate failure")
      | Some (Failpoint.Delay ns) -> Unix.sleepf (Int64.to_float ns /. 1e9)
      | Some Failpoint.Interrupt | None -> ());
      (* rotate: the live file becomes the single backup *)
      close_out_noerr f.oc;
      (try Sys.rename f.path (f.path ^ ".1") with Sys_error _ -> ());
      f.oc <- open_sink f.path;
      f.size <- out_channel_length f.oc
    end;
    output_string f.oc line;
    f.size <- f.size + String.length line;
    flush f.oc;
    true
  with Sys_error _ -> false

let record t kind fields =
  if t.sink <> Null then
    Mutex.protect t.mutex (fun () ->
        match t.sink with
        | Null -> ()
        | Buf buf -> Buffer.add_string buf (render t kind fields)
        | File f ->
            (* Losing an incident must not kill the campaign it
               describes: a sick sink degrades to counting drops, and
               the first write that lands again is preceded by one
               [sink-degraded] marker carrying the loss count — the log
               reader sees the gap instead of inferring it. *)
            if f.degraded then begin
              let marker =
                render t Sink_degraded
                  [
                    ("dropped", string_of_int f.dropped);
                    ("state", "recovered");
                  ]
              in
              if file_write f marker then begin
                f.degraded <- false;
                f.dropped <- 0;
                if not (file_write f (render t kind fields)) then begin
                  f.degraded <- true;
                  f.dropped <- 1
                end
              end
              else f.dropped <- f.dropped + 1
            end
            else if not (file_write f (render t kind fields)) then begin
              f.degraded <- true;
              f.dropped <- 1
            end)

let count t = Mutex.protect t.mutex (fun () -> t.seq)

let degraded t =
  Mutex.protect t.mutex (fun () ->
      match t.sink with File f -> f.degraded | Null | Buf _ -> false)

let dropped t =
  Mutex.protect t.mutex (fun () ->
      match t.sink with File f -> f.dropped | Null | Buf _ -> 0)

let close t =
  Mutex.protect t.mutex (fun () ->
      match t.sink with
      | File f ->
          t.sink <- Null;
          (try close_out f.oc with Sys_error _ -> ())
      | Buf _ | Null -> ())

module For_tests = struct
  let to_buffer = to_buffer
  let count = count
  let degraded = degraded
  let dropped = dropped
end
