type config = {
  timeout_ms : float option;
  retry : Retry.policy;
  incidents : Incident.t;
  clock : unit -> int64;
  sleep : float -> unit;
  live_watchdog : bool;
}

let config ?timeout_ms ?(retry = Retry.no_retry ~seed:0)
    ?(incidents = Incident.null) ?(clock = Clock.monotonic_ns)
    ?(sleep = Clock.sleep_ms) ?(live_watchdog = true) () =
  { timeout_ms; retry; incidents; clock; sleep; live_watchdog }

(* How often the live watchdog scans the in-flight items. *)
let watchdog_poll_ms = 50.0

let ms_between ~clock ~since = Int64.to_float (Int64.sub (clock ()) since) /. 1e6

let capture_exn ~label exn =
  let bt = String.trim (Printexc.get_backtrace ()) in
  (* A pool failure carries the *item's* backtrace, captured on the
     worker domain before the exception crossed the join — surface it
     separately or it is lost (the ambient backtrace here only shows
     the join point). *)
  let pool_ctx =
    match exn with
    | Pool.Item_failure { index; backtrace; _ } ->
        ("pool-item", string_of_int index)
        ::
        (let ib = String.trim backtrace in
         if ib = "" then [] else [ ("item-backtrace", ib) ])
    | _ -> []
  in
  Error.make ~layer:"supervisor" ~code:Error.Internal
    ~context:
      (( "item", label )
      :: ("exn", Printexc.to_string exn)
      :: ((if bt = "" then [] else [ ("backtrace", bt) ]) @ pool_ctx))
    "work item raised"

let supervise cfg ~label f =
  let timed ~attempt =
    let t0 = cfg.clock () in
    let result = try f ~attempt with exn -> Error (capture_exn ~label exn) in
    let elapsed = ms_between ~clock:cfg.clock ~since:t0 in
    match cfg.timeout_ms with
    | Some tmo when elapsed > tmo ->
        Incident.record cfg.incidents Incident.Timeout
          [
            ("item", label);
            ("attempt", string_of_int attempt);
            ("elapsed_ms", Printf.sprintf "%.1f" elapsed);
            ("timeout_ms", Printf.sprintf "%.1f" tmo);
            ("phase", "completed");
          ];
        Error
          (Error.make ~layer:"supervisor" ~code:Error.Timeout
             ~context:
               [
                 ("item", label);
                 ("attempt", string_of_int attempt);
                 ("elapsed_ms", Printf.sprintf "%.1f" elapsed);
                 ("timeout_ms", Printf.sprintf "%.1f" tmo);
               ]
             "work item exceeded its deadline")
    | _ -> result
  in
  let on_retry ~attempt ~delay_ms (e : Error.t) =
    Incident.record cfg.incidents Incident.Retry
      [
        ("item", label);
        ("attempt", string_of_int attempt);
        ("delay_ms", Printf.sprintf "%.1f" delay_ms);
        ("error", Error.to_string e);
      ]
  in
  match Retry.run ~sleep:cfg.sleep ~on_retry cfg.retry timed with
  | Ok v -> Ok v
  | Error e ->
      let e = Error.with_context e [ ("item", label) ] in
      Incident.record cfg.incidents Incident.Quarantine
        [ ("item", label); ("error", Error.to_string e) ];
      Error e

(* ------------------------------------------------------------------ *)
(* Supervised map with a live watchdog                                 *)
(* ------------------------------------------------------------------ *)

let map_result ?(pool = Pool.sequential) cfg ~label f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    (* per-item in-flight start stamp (0 = idle) for the watchdog *)
    let starts = Array.init n (fun _ -> Atomic.make 0L) in
    let flagged = Array.init n (fun _ -> Atomic.make false) in
    let wd_stop = Atomic.make false in
    let watchdog tmo =
      Domain.spawn (fun () ->
          while not (Atomic.get wd_stop) do
            Clock.sleep_ms watchdog_poll_ms;
            for i = 0 to n - 1 do
              let s = Atomic.get starts.(i) in
              if Int64.compare s 0L <> 0 && not (Atomic.get flagged.(i)) then begin
                let elapsed = ms_between ~clock:cfg.clock ~since:s in
                if elapsed > tmo then begin
                  Atomic.set flagged.(i) true;
                  Incident.record cfg.incidents Incident.Timeout
                    [
                      ("item", label i);
                      ("elapsed_ms", Printf.sprintf "%.1f" elapsed);
                      ("timeout_ms", Printf.sprintf "%.1f" tmo);
                      ("phase", "in-flight");
                    ]
                end
              end
            done
          done)
    in
    let wd =
      match cfg.timeout_ms with
      | Some tmo when cfg.live_watchdog -> Some (watchdog tmo)
      | _ -> None
    in
    let work i =
      supervise cfg ~label:(label i) (fun ~attempt:_ ->
          Atomic.set flagged.(i) false;
          Atomic.set starts.(i) (cfg.clock ());
          Fun.protect
            ~finally:(fun () -> Atomic.set starts.(i) 0L)
            (fun () -> f arr.(i)))
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set wd_stop true;
        Option.iter Domain.join wd)
      (fun () ->
        Pool.map_list pool work (List.init n (fun i -> i)))
  end

(* ------------------------------------------------------------------ *)
(* Stop requests                                                       *)
(* ------------------------------------------------------------------ *)

type stop = { flag : bool Atomic.t; signal : int Atomic.t }

let never_stop () = { flag = Atomic.make false; signal = Atomic.make 0 }

let install_stop_signals () =
  let s = never_stop () in
  let handle signum =
    (* async-signal context: only set atomics; the chunked driver
       notices at its next boundary and flushes the checkpoint there *)
    Atomic.set s.signal signum;
    Atomic.set s.flag true
  in
  List.iter
    (fun signum ->
      try Sys.set_signal signum (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  s

let request_stop s = Atomic.set s.flag true
let stop_requested s = Atomic.get s.flag

let stop_signal s =
  match Atomic.get s.signal with 0 -> None | n -> Some n

let signal_name n =
  if n = Sys.sigint then "sigint"
  else if n = Sys.sigterm then "sigterm"
  else if n = Sys.sighup then "sighup"
  else string_of_int n

let exit_code s =
  match stop_signal s with Some n when n = Sys.sigterm -> 143 | _ -> 130

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  sup : config;
  checkpoint : string option;
  resume : bool;
  stop : stop;
}

let session ?sup:(c = config ()) ?checkpoint ?(resume = false) ?stop () =
  {
    sup = c;
    checkpoint;
    resume;
    stop = (match stop with Some s -> s | None -> never_stop ());
  }

let plain = session ()
