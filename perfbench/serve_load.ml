(* serve-mf and serve-mix: a [Serve.daemon] in a forked child, driven
   over its Unix socket by a load generator in this process — one
   connection, two threads: the main thread sends (on a seeded Poisson
   schedule, or keeping a window outstanding), a receiver thread only
   reads, so the daemon can never block on a full socket. Latency is
   timed from each request's due time. *)

open Common
module S = P.Serve
module B = P.Benchmarks
module Ba = Bigarray.Array1

let queue = 65536
let batch_max = 64
let flush_us = 2000

(* No reply for this long while requests are outstanding: the daemon is
   wedged. *)
let watchdog_s = 10.0

(* Requests one run can send; a phase stops early at the cap. *)
let max_requests = 1 lsl 21

exception Wedged of string

type daemon_report = {
  d_mean_batch : float;
  d_rss_mb : float;
  d_served : int;
  d_minor_words : float;  (** allocated by the daemon loop *)
  d_major_gcs : int;
}

(* --- The daemon child --------------------------------------------- *)

(* [Stopped None]: the daemon was killed, or ended without a report. *)
type state = Running | Stopped of daemon_report option

type daemon = {
  pid : int;
  sock : string;
  report_fd : Unix.file_descr;
  mutable state : state;
}

(* Fork before any domain or thread exists in this process. *)
let spawn_daemon ~sock models =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let stop = P.Supervisor.install_stop_signals () in
      let (result, minor, major) =
        gc_window (fun () ->
            S.daemon ~queue ~batch_max ~flush_us ~listen:sock ~stop models)
      in
      let code =
        match result with
        | Ok s ->
            let st = s.S.d_stats in
            ignore
              (P.Ipc.write wr
                 {
                   d_mean_batch = P.Histogram.mean st.S.batch_sizes;
                   d_rss_mb = vm_hwm_mb ();
                   d_served = st.S.served;
                   d_minor_words = minor;
                   d_major_gcs = int_of_float major;
                 });
            0
        | Error e ->
            prerr_endline (P.Error.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      { pid; sock; report_fd = rd; state = Running }

let reap d =
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Unix.close d.report_fd

(* A killed daemon leaves its socket behind. *)
let kill_daemon d =
  if d.state = Running then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d;
    (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
    d.state <- Stopped None
  end

(* SIGTERM: the daemon drains, answers everything pending, reports. One
   that has not reported within the watchdog's time is killed. *)
let stop_daemon d =
  if d.state = Running then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let rec ready () =
      match Unix.select [ d.report_fd ] [] [] watchdog_s with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready ()
    in
    if ready () then begin
      let r =
        match P.Ipc.read d.report_fd with
        | Ok (Some (r : daemon_report)) -> Some r
        | Ok None | Error _ -> None
      in
      reap d;
      d.state <- Stopped r
    end
    else kill_daemon d
  end;
  match d.state with Stopped r -> r | Running -> None

(* CPU seconds a process has used, from /proc/PID/stat (USER_HZ = 100). *)
let cpu_s pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  with
  | exception Sys_error _ -> nan
  | text -> (
      (* fields after the parenthesised command name; utime, stime are
         the 12th and 13th of them *)
      let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 12 ->
          (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12))
          /. 100.0
      | _ -> nan)

(* --- The client ---------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  due : (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t;  (** ns *)
  sent : (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t;
  written : (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t;
  reply : (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t;
  values : float array array;
  errors : int Atomic.t;
  received : int Atomic.t;  (** every reply, probes included *)
  probe_reply : float Atomic.t;
  mutable next_rid : int;
  mutable probes : int;
}

let fnow () = Int64.to_float (now_ns ())
let farray () = Ba.create Bigarray.float64 Bigarray.c_layout max_requests

let connect ~sock d =
  let deadline = fnow () +. (watchdog_s *. 1e9) in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if fnow () > deadline then begin
          kill_daemon d;
          raise (Wedged "the daemon never accepted a connection")
        end;
        Unix.sleepf 0.002;
        go ()
  in
  let fd = go () in
  (* a daemon that stops reading fails our write instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO watchdog_s;
  fd

let make_client fd =
  {
    fd;
    due = farray ();
    sent = farray ();
    written = farray ();
    reply = farray ();
    values = Array.make max_requests [||];
    errors = Atomic.make 0;
    received = Atomic.make 0;
    probe_reply = Atomic.make 0.0;
    next_rid = 0;
    probes = 0;
  }

(* The receiver thread: read until the daemon closes the connection. *)
let receive c =
  let rec loop () =
    match P.Ipc.read c.fd with
    | Ok (Some (r : S.wire_response)) ->
        let t = fnow () in
        if r.S.r_rid >= 0 then begin
          c.reply.{r.S.r_rid} <- t;
          c.values.(r.S.r_rid) <- r.S.r_values;
          if r.S.r_error <> None then Atomic.incr c.errors
        end
        else Atomic.set c.probe_reply t;
        Atomic.incr c.received;
        loop ()
    | Ok None | Error _ -> ()
  in
  loop ()

let outstanding c = c.next_rid + c.probes - Atomic.get c.received

(* The daemon stopped answering: kill it and fail the run. *)
let wedged c d why =
  let missing = outstanding c in
  kill_daemon d;
  raise (Wedged (Printf.sprintf "%s; %d outstanding requests counted failed" why missing))

let send c d ~rid ~model =
  c.reply.{rid} <- neg_infinity;
  c.sent.{rid} <- fnow ();
  match P.Ipc.write c.fd { S.w_rid = rid; w_model = model } with
  | Ok () -> c.written.{rid} <- fnow ()
  | Error e -> wedged c d ("send failed: " ^ P.Error.to_string e)

(* Wait for every reply, killing a daemon that stops answering. *)
let drain c d =
  let last = ref (Atomic.get c.received) and since = ref (fnow ()) in
  while outstanding c > 0 do
    Unix.sleepf 0.0005;
    let r = Atomic.get c.received in
    if r <> !last then begin
      last := r;
      since := fnow ()
    end
    else if (fnow () -. !since) /. 1e9 > watchdog_s then
      wedged c d (Printf.sprintf "no reply for %.0f s" watchdog_s)
  done

(* --- Load phases --------------------------------------------------- *)

(* Seeded Poisson arrivals at [rate] req/s for [seconds]; returns the
   rids sent. *)
let open_loop c d ~rng ~rate ~seconds ~model_of =
  let first = c.next_rid in
  let t0 = fnow () in
  let stop = t0 +. (seconds *. 1e9) in
  let next = ref t0 in
  let gap () = -.Float.log (1.0 -. Random.State.float rng 1.0) /. rate *. 1e9 in
  while !next < stop && c.next_rid < max_requests do
    let t = fnow () in
    if !next <= t then begin
      let rid = c.next_rid in
      c.due.{rid} <- !next;
      c.next_rid <- rid + 1;
      send c d ~rid ~model:(model_of rid);
      next := !next +. gap ()
    end
    else
      (* Sleeping rather than spinning leaves the second core to the
         receiver; the timer's overshoot makes a send late by tens of
         microseconds, which the due-time latency charges honestly. *)
      Unix.sleepf ((!next -. t) /. 1e9)
  done;
  drain c d;
  (first, c.next_rid)

(* Keep [window] requests outstanding for [seconds]; the served req/s
   of each sub-window. The window is refilled in bursts once a quarter
   of it has drained, instead of one send per reply. *)
let closed_loop c d ~window ~seconds ~model_of =
  let stop = fnow () +. (seconds *. 1e9) in
  let rate = Rate.create () in
  let seen = ref (Atomic.get c.received) in
  while fnow () < stop && c.next_rid < max_requests do
    if outstanding c <= window * 3 / 4 then
      while outstanding c < window && c.next_rid < max_requests do
        let rid = c.next_rid in
        c.due.{rid} <- fnow ();
        c.next_rid <- rid + 1;
        send c d ~rid ~model:(model_of rid)
      done
    else Unix.sleepf 0.00005;
    let r = Atomic.get c.received in
    Rate.add rate (r - !seen);
    seen := r
  done;
  drain c d;
  Rate.rates rate

(* Round trips of requests for a model the daemon does not serve: it
   rejects them at admission, before any compute. *)
let rtt_probe c d ~n =
  List.init n (fun i ->
      let r0 = Atomic.get c.received in
      let t = fnow () in
      c.probes <- c.probes + 1;
      (match P.Ipc.write c.fd { S.w_rid = -(i + 1); w_model = "?" } with
      | Ok () -> ()
      | Error e -> wedged c d ("probe send failed: " ^ P.Error.to_string e));
      while Atomic.get c.received = r0 do
        if (fnow () -. t) /. 1e9 > watchdog_s then wedged c d "no reply to a probe";
        Thread.yield ()
      done;
      (Atomic.get c.probe_reply -. t) /. 1e3)

let latencies_ms c (first, last) =
  List.init (last - first) (fun i -> (c.reply.{first + i} -. c.due.{first + i}) /. 1e6)

let late_sends c (first, last) =
  List.length
    (List.filter
       (fun rid -> c.sent.{rid} -. c.due.{rid} > 1e6)
       (List.init (last - first) (fun i -> first + i)))

(* MD5 over (rid, value bit patterns) in rid order, as [Serve.load_run]
   fingerprints its replies. *)
let digest n value =
  let buf = Buffer.create 4096 in
  for rid = 0 to n - 1 do
    Buffer.add_string buf (string_of_int rid);
    Array.iter (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v)) (value rid)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The same request sequence through an in-process engine in [Single]
   mode on twin models: one connection fixes each model's order, and a
   batched reply equals the sequential one bit for bit. *)
let twin_digest ~twins ~n ~model_of =
  let outputs = Array.make n [||] in
  let respond (o : S.outcome) =
    match o.S.o_result with Ok r -> outputs.(o.S.o_rid) <- r.S.values | Error _ -> ()
  in
  let eng = ok (S.create ~mode:S.Single ~queue ~batch_max ~flush_us ~respond (twins ())) in
  for rid = 0 to n - 1 do
    ok (S.submit eng ~rid ~model:(model_of rid));
    if rid mod 1024 = 1023 then begin
      S.pump eng;
      S.flush_all eng
    end
  done;
  S.pump eng;
  S.flush_all eng;
  digest n (fun rid -> outputs.(rid))

(* Served req/s of each model through [Serve.load_run] (same knobs,
   closed loop, no socket), growing the request count until a run takes
   a third of its budget; the round-robin mix's capacity is the
   harmonic mean. *)
let inproc_capacity ~window ~budget models =
  let each = budget /. float_of_int (List.length models) in
  let one model =
    let rec go n =
      let r =
        ok
          (S.load_run ~mode:S.Batched ~queue ~batch_max ~flush_us ~requests:n
             ~load:(S.Closed_loop window) ~model ())
      in
      if r.S.l_seconds < each /. 3.0 && n < max_requests / 4 then go (4 * n)
      else r.S.l_rps
    in
    go 256
  in
  let rates = List.map one models in
  1.0 /. Stats.mean (List.map (fun r -> 1.0 /. r) rates)

(* --- The workload -------------------------------------------------- *)

let make ~rate ~window ~noisy ~benchmarks ~seed =
  let t0 = now_ns () in
  let benches = benchmarks () in
  let names = Array.of_list (List.map fst benches) in
  let model_of rid = names.(rid mod Array.length names) in
  (* Twin models: the same seeds give bit-for-bit the same machines. *)
  let model (name, b) () =
    S.model_of_benchmark ~name
      ~noise_seed:(if noisy then Some seed else None)
      ~fill_seed:seed b
  in
  let models = List.map (fun nb -> model nb ()) benches in
  let models_s = s_since t0 in
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ()) in
  let d = spawn_daemon ~sock models in
  let c = make_client (connect ~sock d) in
  let receiver = Thread.create receive c in
  let closed = ref false in
  (* Stop the daemon; its report, or None when it had to be killed.
     Either way its end of the connection is closed, which ends the
     receiver. *)
  let stop () =
    let r = stop_daemon d in
    if not !closed then begin
      closed := true;
      Thread.join receiver;
      Unix.close c.fd
    end;
    r
  in
  let shutdown () =
    match stop () with
    | Some r -> r
    | None ->
        raise
          (Wedged (Printf.sprintf "the daemon did not report within %.0f s of SIGTERM" watchdog_s))
  in
  let verdict () =
    let n = c.next_rid in
    let missing = ref 0 in
    for rid = 0 to n - 1 do
      if c.reply.{rid} < c.due.{rid} then incr missing
    done;
    let got = digest n (fun rid -> c.values.(rid)) in
    let want =
      twin_digest ~twins:(fun () -> List.map (fun nb -> model nb ()) benches) ~n ~model_of
    in
    let errors = Atomic.get c.errors in
    ( got = want && errors = 0 && !missing = 0,
      errors + !missing,
      Printf.sprintf
        "serve check: %d requests, socket digest %s, Single-mode twin digest %s, \
         %d error replies, %d missing"
        n got want errors !missing )
  in
  let rng = Random.State.make [| seed |] in
  let measure ~seconds ~trace =
    match trace with
    | None ->
        let open_rids = open_loop c d ~rng ~rate ~seconds:(0.6 *. seconds) ~model_of in
        let capacity = throughput (closed_loop c d ~window ~seconds:(0.4 *. seconds) ~model_of) in
        let report = shutdown () in
        let correct, failed, note = verdict () in
        let lat = latencies_ms c open_rids in
        {
          correct;
          attempted = c.next_rid;
          failed;
          metrics =
            [
              m "op_p50_ms" "ms" (Stats.median lat);
              m "throughput_per_s" "1/s" capacity;
              m "peak_rss_mb" "MiB" report.d_rss_mb;
            ];
          notes =
            [
              Printf.sprintf
                "serve: open loop %.0f req/s, %d samples, p50 %.3f ms, p99 %.3f ms, \
                 %d sends >1 ms late; closed loop (%d outstanding) %.0f req/s; \
                 daemon mean batch %.1f"
                rate (List.length lat) (Stats.median lat) (Stats.percentile lat 0.99)
                (late_sends c open_rids) window capacity report.d_mean_batch;
              note;
            ];
        }
    | Some tracer ->
        let probe_s, half_s = split_window ~seconds in
        let rtt_us = rtt_probe c d ~n:500 in
        let inproc =
          inproc_capacity ~window ~budget:(0.6 *. probe_s) (List.map model benches)
        in
        (* the daemon coalesces up to [batch_max] decisions per launch *)
        let programs =
          List.map (fun (name, b) -> (name, b.B.per_decision_program, batch_max)) benches
        in
        let arch = arch_probe ~seed ~budget:(0.4 *. probe_s) programs in
        let cpu0 = cpu_s d.pid and w0 = fnow () in
        let untraced = open_loop c d ~rng ~rate ~seconds:half_s ~model_of in
        let busy = (cpu_s d.pid -. cpu0) /. ((fnow () -. w0) /. 1e9) in
        let traced = open_loop c d ~rng ~rate ~seconds:half_s ~model_of in
        (* The request spans come from the timestamps the generator
           takes on every run, so tracing adds nothing to the timed
           path. *)
        let ns f = Int64.of_float f in
        for rid = fst traced to snd traced - 1 do
          let parent =
            Span.record tracer ~rid "serve.request" ~start_ns:(ns c.due.{rid})
              ~end_ns:(ns c.reply.{rid})
          in
          ignore
            (Span.record tracer ~parent ~rid "serve.send" ~start_ns:(ns c.sent.{rid})
               ~end_ns:(ns c.written.{rid}))
        done;
        let report = shutdown () in
        let correct, failed, note = verdict () in
        let latency_ms = latencies_ms c untraced in
        let costs = List.map (fun (_, p, _) -> sim_cost ~seed p) programs in
        let mean f = Stats.mean (List.map f costs) in
        let served = float_of_int report.d_served in
        {
          correct;
          attempted = c.next_rid;
          failed;
          metrics =
            common_layers ~arch ~latency_ms
              ~op_traced_ms:
                (Stats.median
                   (List.map (fun d -> d /. 1e6) (Span.durations_ns tracer "serve.request")))
              ~minor_words_per_op:(report.d_minor_words /. served)
              ~major_gcs_per_op:(float_of_int report.d_major_gcs /. served)
              ~tasks_per_op:(mean (fun (t, _, _) -> t))
              ~cycles_per_op:(mean (fun (_, c, _) -> c))
              ~energy_nj_per_op:(mean (fun (_, _, e) -> e))
            @ [
                m "serve.mean_batch" "count" report.d_mean_batch;
                m "serve.ipc_share" "share" (Stats.median rtt_us /. 1e3 /. Stats.median latency_ms);
                m "serve.daemon_busy_share" "share" busy;
                m "serve.inproc_capacity_rps" "1/s" inproc;
                m "serve.late_sends" "count"
                  (float_of_int (late_sends c untraced + late_sends c traced));
              ];
          notes =
            [
              Printf.sprintf "serve: admission-reject round trip p50 %.1f us over %d probes"
                (Stats.median rtt_us) (List.length rtt_us);
              note;
            ];
        }
  in
  { measure; teardown = (fun () -> ignore (stop ())); models_s }

(* Noiseless matched filter: tiny compute per request, so the time goes
   to the select loop, Ipc/Marshal framing and coalescing. *)
let mf =
  make ~rate:40_000.0 ~window:256 ~noisy:false ~benchmarks:(fun () ->
      [ ("mf", B.matched_filter ()) ])

(* Noisy matched filter, kNN-L1 and LinReg, round-robin: the time goes
   to analog noise and batched compute; LinReg's four-task program
   takes the [run_program_batch] fallback. At 500 req/s, or with 256
   outstanding, a noisy-compute backlog makes the daemon flush tiny
   overdue batches, and latency and capacity swing by half from run to
   run with the host's speed. *)
let mix =
  make ~rate:250.0 ~window:32 ~noisy:true ~benchmarks:(fun () ->
      [ ("mf", B.matched_filter ()); ("knn", B.knn_l1 ()); ("linreg", B.linreg ()) ])
