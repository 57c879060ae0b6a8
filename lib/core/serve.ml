module E = Promise_core.Error
module Incident = Promise_core.Incident
module Supervisor = Promise_core.Supervisor
module Clock = Promise_core.Clock
module Pool = Promise_core.Pool
module Queue_bounded = Promise_core.Queue_bounded
module Histogram = Promise_core.Histogram
module Ipc = Promise_core.Ipc
module Machine = Promise_arch.Machine
module Selftest = Promise_arch.Selftest
module Runtime = Promise_compiler.Runtime
module Failpoint = Promise_core.Failpoint
module Rng = Promise_analog.Rng

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Models                                                               *)
(* ------------------------------------------------------------------ *)

type model = {
  m_name : string;
  m_machine : Machine.t;
  m_program : Promise_isa.Program.t;
  m_launch : Machine.launch option;
      (** a single-task program's launch, fixed at build *)
  mutable m_out : Rng.ba;  (** its batch's emission streams, grown on demand *)
  m_refill : Machine.t -> unit;
      (** restore the deterministic data image (BIST is destructive) *)
  m_rebuild : unit -> Machine.t;
      (** build a bit-for-bit twin — the fallback rung's machine *)
}

(* The deterministic data image: every bank row and X-REG slot filled
   from one seeded stream, so two models built from the same seeds
   replay bit-identical decision streams. *)
let fill_machine ~seed machine =
  let lanes = Promise_arch.Params.lanes in
  let rng = Rng.create seed in
  let codes () = Array.init lanes (fun _ -> Rng.int rng 255 - 128) in
  for bi = 0 to Machine.n_banks machine - 1 do
    let bank = Machine.bank machine bi in
    for row = 0 to 63 do
      Promise_arch.Bitcell_array.write
        (Promise_arch.Bank.array bank)
        ~word_row:row (codes ())
    done;
    for i = 0 to Promise_arch.Params.xreg_depth - 1 do
      Promise_arch.Xreg.load (Promise_arch.Bank.xreg bank) ~index:i (codes ())
    done
  done

let ba_create n = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n

let model_of_benchmark ?name ?banks ?(noise_seed = None) ?(fill_seed = 7)
    (b : Benchmarks.t) =
  let banks =
    match banks with Some n -> n | None -> max 1 b.Benchmarks.banks
  in
  let build () =
    let machine =
      Machine.create
        { Machine.banks; profile = Promise_arch.Bank.Silicon; noise_seed }
    in
    fill_machine ~seed:fill_seed machine;
    machine
  in
  let program = b.Benchmarks.per_decision_program in
  {
    m_name = Option.value name ~default:b.Benchmarks.name;
    m_machine = build ();
    m_program = program;
    m_launch =
      (match program.Promise_isa.Program.tasks with
      | [ task ] -> Some (Machine.default_launch task)
      | _ -> None);
    m_out = ba_create 0;
    m_refill = fill_machine ~seed:fill_seed;
    m_rebuild = build;
  }

let model_name m = m.m_name

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

type mode = Batched | Single

type reply = { values : float array; batch : int }

(* --- Self-healing state ------------------------------------------- *)

(* The per-model circuit breaker: [Closed] dispatches normally; after
   [breaker_threshold] consecutive batch failures it trips [Open] for a
   cooldown (flushes answer [Overloaded] without touching the machine);
   the first flush past the cooldown runs as a [Half_open] probe whose
   result closes or re-opens the breaker. *)
type breaker = Closed | Open of int64  (** until, engine clock *) | Half_open

(* How many fallback flushes between attempts to return to analog. *)
let reprobe_interval = 16

type health = {
  mutable h_consec : int;  (** consecutive batch dispatch failures *)
  mutable h_breaker : breaker;
  mutable h_digital : int option;
      (** [Some k] = serving from the fallback twin, [k]
          flushes since the primary was last reprobed *)
  mutable h_fallback : Machine.t option;  (** built lazily on first use *)
}

type outcome = {
  o_rid : int;
  o_result : (reply, E.t) result;
}

type pending = {
  p_model : model;
  mutable p_reqs : (int * int64) list;  (** (rid, arrival), newest first *)
  mutable p_count : int;
  mutable p_oldest : int64;
}

type t = {
  clock : unit -> int64;
  incidents : Incident.t;
  pool : Pool.t option;
  deadline_ms : float option;
  mode : mode;
  batch_max : int;
  flush_ns : int64;
  respond : outcome -> unit;
  sup : Supervisor.config;
  models : (string, model) Hashtbl.t;
  inbox : (int * string * int64) Queue_bounded.t;
  pending : (string, pending) Hashtbl.t;
  breaker_threshold : int;
  breaker_cooldown_ns : int64;
  dwell_budget_ns : int64 option;
  health : (string, health) Hashtbl.t;
  mutable submitted : int;
  mutable rejected_other : int;  (** unknown-model rejections *)
  mutable served : int;
  mutable timeouts : int;
  mutable failures : int;
  mutable batches : int;
  mutable shed : int;  (** [Overloaded] outcomes/rejections *)
  mutable healed : int;  (** batches recovered on the primary after BIST *)
  mutable fallback_batches : int;  (** batches served by the fallback twin *)
  latency : Histogram.t;
  batch_sizes : Histogram.t;
}

type stats = {
  submitted : int;
  rejected : int;
  served : int;
  timeouts : int;
  failures : int;
  batches : int;
  shed : int;
  healed : int;
  fallback_batches : int;
  queue : Queue_bounded.stats;
  latency_ns : Histogram.t;
  batch_sizes : Histogram.t;
}

let max_flush_us = 10_000_000

let create ?(clock = Clock.monotonic_ns) ?(incidents = Incident.null) ?pool
    ?deadline_ms ?(mode = Batched) ?(breaker_threshold = 8)
    ?(breaker_cooldown_ms = 100.0) ?dwell_budget_us ~queue ~batch_max
    ~flush_us ~respond models =
  let* () =
    if breaker_threshold < 1 || breaker_threshold > 10_000 then
      E.fail ~layer:"serve" ~code:E.Invalid_operand
        ~context:[ ("breaker_threshold", string_of_int breaker_threshold) ]
        "breaker_threshold out of range 1..10000"
    else Ok ()
  in
  let* () =
    match dwell_budget_us with
    | Some u when u < 1 || u > max_flush_us ->
        E.fail ~layer:"serve" ~code:E.Invalid_operand
          ~context:[ ("dwell_budget_us", string_of_int u) ]
          (Printf.sprintf "dwell_budget_us out of range 1..%d" max_flush_us)
    | _ -> Ok ()
  in
  let* () =
    if batch_max < 1 || batch_max > 4096 then
      E.fail ~layer:"serve" ~code:E.Invalid_operand
        ~context:[ ("batch_max", string_of_int batch_max) ]
        "batch_max out of range 1..4096"
    else Ok ()
  in
  let* () =
    if flush_us < 1 || flush_us > max_flush_us then
      E.fail ~layer:"serve" ~code:E.Invalid_operand
        ~context:[ ("flush_us", string_of_int flush_us) ]
        (Printf.sprintf "flush_us out of range 1..%d" max_flush_us)
    else Ok ()
  in
  let* () =
    match models with
    | [] ->
        E.fail ~layer:"serve" ~code:E.Invalid_operand
          "an engine needs at least one model"
    | _ -> Ok ()
  in
  let* inbox = Queue_bounded.create ~capacity:queue in
  let tbl = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        if Hashtbl.mem tbl m.m_name then
          E.fail ~layer:"serve" ~code:E.Invalid_operand
            ~context:[ ("model", m.m_name) ]
            "duplicate model name"
        else begin
          Hashtbl.add tbl m.m_name m;
          Ok ()
        end)
      (Ok ()) models
  in
  Ok
    {
      clock;
      incidents;
      pool;
      deadline_ms;
      mode;
      batch_max;
      flush_ns = Int64.of_int (flush_us * 1000);
      respond;
      sup = Supervisor.config ~incidents ~clock ();
      models = tbl;
      inbox;
      pending = Hashtbl.create 16;
      breaker_threshold;
      breaker_cooldown_ns = Int64.of_float (breaker_cooldown_ms *. 1e6);
      dwell_budget_ns =
        Option.map (fun u -> Int64.of_int (u * 1000)) dwell_budget_us;
      health = Hashtbl.create 16;
      submitted = 0;
      rejected_other = 0;
      served = 0;
      timeouts = 0;
      failures = 0;
      batches = 0;
      shed = 0;
      healed = 0;
      fallback_batches = 0;
      latency = Histogram.create ();
      batch_sizes = Histogram.create ();
    }

let stats t =
  let q = Queue_bounded.stats t.inbox in
  {
    submitted = t.submitted;
    rejected = q.Queue_bounded.rejected + t.rejected_other;
    served = t.served;
    timeouts = t.timeouts;
    failures = t.failures;
    batches = t.batches;
    shed = t.shed;
    healed = t.healed;
    fallback_batches = t.fallback_batches;
    queue = q;
    latency_ns = t.latency;
    batch_sizes = t.batch_sizes;
  }

let health_for t name =
  match Hashtbl.find_opt t.health name with
  | Some h -> h
  | None ->
      let h =
        { h_consec = 0; h_breaker = Closed; h_digital = None; h_fallback = None }
      in
      Hashtbl.add t.health name h;
      h

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)
(* ------------------------------------------------------------------ *)

let overloaded_error ~reason ~retry_after_ms ctx =
  E.make ~layer:"serve" ~code:E.Overloaded
    ~context:
      (ctx
      @ [
          ("reason", reason);
          ("retry-after-ms", Printf.sprintf "%.1f" retry_after_ms);
        ])
    "service overloaded; retry later"

(* Dwell shedding: the age of the inbox head bounds the head-of-line
   blocking every later arrival will suffer — once it exceeds the
   budget, admitting more work only manufactures timeouts, so the offer
   is refused {e now} with a typed [Overloaded] and a retry-after hint
   (the flush window: by then the head must have drained or the breaker
   story takes over). *)
let dwell_shed t ~rid ~model =
  match t.dwell_budget_ns with
  | None -> None
  | Some budget -> (
      match Queue_bounded.peek_opt t.inbox with
      | Some (_, _, arrival) when Int64.sub (t.clock ()) arrival > budget ->
          let dwell_ms =
            Int64.to_float (Int64.sub (t.clock ()) arrival) /. 1e6
          in
          let retry_after_ms =
            Float.max 1.0 (Int64.to_float t.flush_ns /. 1e6)
          in
          t.shed <- t.shed + 1;
          Incident.record t.incidents Incident.Admission_reject
            [
              ("rid", string_of_int rid);
              ("model", model);
              ("reason", "overload");
              ("dwell_ms", Printf.sprintf "%.1f" dwell_ms);
            ];
          Some
            (overloaded_error ~reason:"queue-dwell-over-budget"
               ~retry_after_ms
               [
                 ("rid", string_of_int rid);
                 ("dwell_ms", Printf.sprintf "%.1f" dwell_ms);
               ])
      | _ -> None)

let submit t ~rid ~model =
  if not (Hashtbl.mem t.models model) then begin
    t.rejected_other <- t.rejected_other + 1;
    Incident.record t.incidents Incident.Admission_reject
      [ ("rid", string_of_int rid); ("model", model); ("reason", "unknown") ];
    E.fail ~layer:"serve" ~code:E.Invalid_operand
      ~context:[ ("model", model) ]
      "unknown model"
  end
  else
    match dwell_shed t ~rid ~model with
    | Some e -> Error e
    | None -> (
    match Queue_bounded.try_push t.inbox (rid, model, t.clock ()) with
    | Ok () ->
        t.submitted <- t.submitted + 1;
        Ok ()
    | Error e ->
        Incident.record t.incidents Incident.Admission_reject
          [
            ("rid", string_of_int rid);
            ("model", model);
            ("reason", "queue-full");
            ("depth", string_of_int (Queue_bounded.length t.inbox));
          ];
        Error e)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

(* The decision's emission stream, the reply payload: output-buffer
   then accumulator emissions per task, in task order — what
   [execute_batch_into] writes for a single-task program. *)
let values_of_results rs =
  Array.of_list
    (List.concat_map
       (fun r -> r.Machine.emitted @ r.Machine.acc_out)
       rs)

(* Dispatch [batch] decisions of [m] on [machine]: the primary, or the
   fallback twin under [Reference] kernels. In [Batched] mode a
   single-task program goes through [execute_batch_into], whose
   in-buffer loop allocates nothing per decision on the fused plane
   (the allocating [execute_batch] in its place raised the daemon's
   peak RSS by a tenth); every other dispatch runs the program once per
   decision. The trace is an audit artifact of batch/CLI runs: a daemon
   serving forever must not retain one record per dispatch. *)
let dispatch ?kernel_mode t m machine ~batch =
  let r =
    match (t.mode, m.m_launch) with
    | Batched, Some launch ->
        let need =
          batch
          * Machine.emissions_per_decision launch.Machine.task
              ~th:launch.Machine.th
        in
        if Bigarray.Array1.dim m.m_out < need then m.m_out <- ba_create need;
        let out = m.m_out in
        let* epd =
          Machine.execute_batch_into ?pool:t.pool ?kernel_mode machine launch
            ~batch ~out
        in
        Ok
          (Array.init batch (fun d ->
               Array.init epd (fun g -> out.{(d * epd) + g})))
    | Batched, None | Single, _ ->
        let rec go acc k =
          if k = 0 then Ok (Array.of_list (List.rev acc))
          else
            let* rs =
              Machine.run_program ?pool:t.pool ?kernel_mode machine m.m_program
            in
            go (values_of_results rs :: acc) (k - 1)
        in
        go [] batch
  in
  Machine.reset_trace machine;
  r

let timeout_error ~rid ~waited_ms =
  E.make ~layer:"serve" ~code:E.Timeout
    ~context:
      [ ("rid", string_of_int rid); ("waited_ms", Printf.sprintf "%.1f" waited_ms) ]
    "request exceeded its watchdog deadline before dispatch"

(* ------------------------------------------------------------------ *)
(* Self-healing dispatch                                                *)
(* ------------------------------------------------------------------ *)

(* The [serve.dispatch]/[serve.flush] failpoints fire before the
   machine is touched, so an injected fault leaves the substrate in the
   same state a pre-dispatch hardware fault would — retrying is
   stream-safe, exactly like [machine.execute]'s own contract. *)
let injected_serve_fault site =
  match Failpoint.check site with
  | Some Failpoint.Fail ->
      Some
        (E.make ~layer:"serve" ~code:E.Fault
           ~context:[ ("site", site); ("injected", "true") ]
           "injected service fault")
  | Some (Failpoint.Delay ns) ->
      Clock.sleep_ms (Int64.to_float ns /. 1e6);
      None
  | Some Failpoint.Interrupt | None -> None

let dispatch_primary t m ~batch =
  match injected_serve_fault "serve.dispatch" with
  | Some e -> Error e
  | None -> dispatch t m m.m_machine ~batch

let breaker_incident t m ~state fields =
  Incident.record t.incidents Incident.Breaker
    (("model", m.m_name) :: ("state", state) :: fields)

(* The degradation ladder's middle rung: a destructive BIST localizes
   the fault, the findings are logged (and dead banks/lanes quarantined
   through [Runtime.recovery_of_report], the exclusion machinery the
   batch runtime already uses), then the data image is refilled — BIST
   overwrites the first word rows and X-REG 0 — so a retry on the
   primary sees exactly the pre-fault machine. *)
let bist_and_quarantine t m =
  (match Selftest.run m.m_machine with
  | Ok report ->
      let summary =
        match report.Selftest.findings with
        | [] -> "clean"
        | fs ->
            String.concat ","
              (List.map
                 (fun f ->
                   Printf.sprintf "%d:%s" f.Selftest.bank
                     (Selftest.kind_name f.Selftest.kind))
                 fs)
      in
      Incident.record t.incidents Incident.Bist
        [
          ("model", m.m_name);
          ("findings", summary);
          ("banks_tested", string_of_int report.Selftest.banks_tested);
        ];
      let rc = Runtime.recovery_of_report report in
      if rc.Runtime.excluded_banks <> [] || rc.Runtime.spared_lanes <> []
      then
        Incident.record t.incidents Incident.Quarantine
          [
            ("model", m.m_name);
            ( "banks",
              String.concat ","
                (List.map string_of_int rc.Runtime.excluded_banks) );
            ( "lanes",
              String.concat ","
                (List.map string_of_int rc.Runtime.spared_lanes) );
          ]
  | Error e ->
      Incident.record t.incidents Incident.Bist
        [ ("model", m.m_name); ("error", E.to_string e) ]);
  m.m_refill m.m_machine;
  Machine.reset_trace m.m_machine

let fallback_machine m h =
  match h.h_fallback with
  | Some mc -> mc
  | None ->
      let mc = m.m_rebuild () in
      h.h_fallback <- Some mc;
      mc

(* One batch through the degradation ladder:
   analog primary → (on [Fault]) BIST + quarantine + refill, retry the
   primary → a rebuilt twin on the scalar reference datapath. A model
   parked on the fallback reprobes the primary every [reprobe_interval]
   flushes. Requests only fail if the fallback rung fails too. *)
let dispatch_with_heal t m h ~batch ~flush_fault =
  (* The fallback is a rebuilt twin on the scalar reference datapath.
     It is not digital: the scalar loop over [Bank.run_iteration] draws
     the same analog noise as the fused path, and its values are bitwise
     those of the fused path (the fused ≡ reference contract), so
     survivors keep the bit-identity guarantee *)
  let twin () =
    let* vs =
      dispatch t m (fallback_machine m h) ~kernel_mode:Machine.Reference ~batch
    in
    t.fallback_batches <- t.fallback_batches + 1;
    Ok vs
  in
  match h.h_digital with
  | Some k when k + 1 < reprobe_interval ->
      h.h_digital <- Some (k + 1);
      twin ()
  | Some _ -> (
      (* reprobe: try to climb back to analog *)
      match dispatch_primary t m ~batch with
      | Ok vs ->
          h.h_digital <- None;
          Incident.record t.incidents Incident.Degradation
            [ ("model", m.m_name); ("state", "analog-restored") ];
          Ok vs
      | Error _ ->
          h.h_digital <- Some 0;
          twin ())
  | None -> (
      let first =
        match flush_fault with
        | Some e -> Error e
        | None -> dispatch_primary t m ~batch
      in
      match first with
      | Ok vs -> Ok vs
      | Error ({ E.code = E.Fault; _ } as e) -> (
          Incident.record t.incidents Incident.Degradation
            [
              ("model", m.m_name);
              ("state", "fault");
              ("error", E.to_string e);
            ];
          bist_and_quarantine t m;
          match dispatch_primary t m ~batch with
          | Ok vs ->
              t.healed <- t.healed + 1;
              Incident.record t.incidents Incident.Degradation
                [ ("model", m.m_name); ("state", "healed") ];
              Ok vs
          | Error _ ->
              Incident.record t.incidents Incident.Degradation
                [ ("model", m.m_name); ("state", "digital-fallback") ];
              h.h_digital <- Some 0;
              twin ())
      | Error e -> Error e)

(* Flush one pending set: answer watchdog-overdue requests with typed
   [Timeout]; when the model's breaker is open, answer the rest with
   typed [Overloaded] (+ retry-after) without touching the machine;
   otherwise dispatch the survivors as one batch through the healing
   ladder under the supervisor, and respond per request. *)
let flush t p =
  let reqs = List.rev p.p_reqs in
  p.p_reqs <- [];
  p.p_count <- 0;
  let m = p.p_model in
  let now = t.clock () in
  let live, dropped =
    match t.deadline_ms with
    | None -> (reqs, [])
    | Some d ->
        let budget_ns = Int64.of_float (d *. 1e6) in
        List.partition
          (fun (_, arrival) -> Int64.sub now arrival <= budget_ns)
          reqs
  in
  List.iter
    (fun (rid, arrival) ->
      t.timeouts <- t.timeouts + 1;
      let waited_ms = Int64.to_float (Int64.sub now arrival) /. 1e6 in
      Incident.record t.incidents Incident.Timeout
        [
          ("item", Printf.sprintf "serve:%s:%d" m.m_name rid);
          ("waited_ms", Printf.sprintf "%.1f" waited_ms);
        ];
      t.respond
        { o_rid = rid; o_result = Error (timeout_error ~rid ~waited_ms) })
    dropped;
  match live with
  | [] -> ()
  | _ -> (
      let n = List.length live in
      let h = health_for t m.m_name in
      match h.h_breaker with
      | Open until when Int64.compare until now > 0 ->
          (* open breaker: shed the whole batch, machine untouched *)
          let retry_after_ms =
            Int64.to_float (Int64.sub until now) /. 1e6
          in
          t.shed <- t.shed + n;
          List.iter
            (fun (rid, _) ->
              t.respond
                {
                  o_rid = rid;
                  o_result =
                    Error
                      (overloaded_error ~reason:"breaker-open"
                         ~retry_after_ms
                         [ ("rid", string_of_int rid) ]);
                })
            live
      | _ ->
          let probing =
            match h.h_breaker with
            | Open _ ->
                h.h_breaker <- Half_open;
                breaker_incident t m ~state:"half-open" [];
                true
            | Half_open -> true
            | Closed -> false
          in
          let flush_fault = injected_serve_fault "serve.flush" in
          let label = Printf.sprintf "serve:%s:batch%d" m.m_name n in
          let dispatched =
            Supervisor.supervise t.sup ~label (fun ~attempt:_ ->
                dispatch_with_heal t m h ~batch:n ~flush_fault)
          in
          (match dispatched with
          | Ok _ ->
              if probing then breaker_incident t m ~state:"closed" [];
              h.h_consec <- 0;
              h.h_breaker <- Closed
          | Error _ ->
              h.h_consec <- h.h_consec + 1;
              if probing || h.h_consec >= t.breaker_threshold then begin
                h.h_breaker <- Open (Int64.add (t.clock ()) t.breaker_cooldown_ns);
                breaker_incident t m ~state:"open"
                  [
                    ("consecutive", string_of_int h.h_consec);
                    ( "cooldown_ms",
                      Printf.sprintf "%.1f"
                        (Int64.to_float t.breaker_cooldown_ns /. 1e6) );
                  ]
              end);
          t.batches <- t.batches + (match t.mode with Batched -> 1 | Single -> n);
          (match t.mode with
          | Batched -> Histogram.add t.batch_sizes (float_of_int n)
          | Single ->
              for _ = 1 to n do
                Histogram.add t.batch_sizes 1.0
              done);
          let done_ns = t.clock () in
          let reply_batch = match t.mode with Batched -> n | Single -> 1 in
          List.iteri
            (fun i (rid, arrival) ->
              match dispatched with
              | Ok values ->
                  t.served <- t.served + 1;
                  Histogram.add t.latency
                    (Int64.to_float (Int64.sub done_ns arrival));
                  t.respond
                    {
                      o_rid = rid;
                      o_result = Ok { values = values.(i); batch = reply_batch };
                    }
              | Error e ->
                  t.failures <- t.failures + 1;
                  t.respond
                    {
                      o_rid = rid;
                      o_result =
                        Error (E.with_context e [ ("rid", string_of_int rid) ]);
                    })
            live)

(* ------------------------------------------------------------------ *)
(* Coalescing                                                           *)
(* ------------------------------------------------------------------ *)

let pending_for t name =
  match Hashtbl.find_opt t.pending name with
  | Some p -> p
  | None ->
      let p =
        {
          p_model = Hashtbl.find t.models name;
          p_reqs = [];
          p_count = 0;
          p_oldest = 0L;
        }
      in
      Hashtbl.add t.pending name p;
      p

let rec pump t =
  match Queue_bounded.pop_opt t.inbox with
  | None -> ()
  | Some (rid, name, arrival) ->
      let p = pending_for t name in
      if p.p_count = 0 then p.p_oldest <- arrival;
      p.p_reqs <- (rid, arrival) :: p.p_reqs;
      p.p_count <- p.p_count + 1;
      if p.p_count >= t.batch_max then flush t p;
      pump t

(* The effective flush horizon: the coalescing deadline, tightened by
   the per-request watchdog when one is armed (a request must be
   answered [Timeout] promptly, not once the batch window expires). *)
let span_ns t =
  match t.deadline_ms with
  | None -> t.flush_ns
  | Some d ->
      let w = Int64.of_float (d *. 1e6) in
      if w < t.flush_ns then w else t.flush_ns

let due_pendings t ~now =
  let span = span_ns t in
  Hashtbl.fold
    (fun _ p acc ->
      if p.p_count > 0 && Int64.sub now p.p_oldest >= span then p :: acc
      else acc)
    t.pending []

let flush_due t =
  let now = t.clock () in
  List.iter (flush t) (due_pendings t ~now)

let flush_all t =
  let ps =
    Hashtbl.fold (fun _ p acc -> if p.p_count > 0 then p :: acc else acc)
      t.pending []
  in
  List.iter (flush t) ps

let next_deadline_ns t =
  let span = span_ns t in
  Hashtbl.fold
    (fun _ p acc ->
      if p.p_count = 0 then acc
      else
        let d = Int64.add p.p_oldest span in
        match acc with
        | Some best when best <= d -> acc
        | _ -> Some d)
    t.pending None

(* ------------------------------------------------------------------ *)
(* Socket daemon                                                        *)
(* ------------------------------------------------------------------ *)

type wire_request = { w_rid : int; w_model : string }

type wire_response = {
  r_rid : int;
  r_values : float array;
  r_batch : int;
  r_error : string option;
}

type daemon_summary = { d_completed : int; d_stats : stats }

let write_frame fd (resp : wire_response) =
  match Ipc.write fd resp with
  | Ok () -> true
  | Error _ | (exception Unix.Unix_error _) -> false

let daemon ?(max_requests = 0) ?(incidents = Incident.null) ?pool ?deadline_ms
    ?breaker_threshold ?dwell_budget_us ~queue ~batch_max ~flush_us ~listen
    ~stop models =
  (* rid (daemon-global) → where the response goes *)
  let rid_tbl : (int, Unix.file_descr * int) Hashtbl.t = Hashtbl.create 64 in
  let next_rid = ref 0 in
  let completed = ref 0 in
  let respond (out : outcome) =
    incr completed;
    match Hashtbl.find_opt rid_tbl out.o_rid with
    | None -> ()  (* client hung up before its answer *)
    | Some (fd, w_rid) ->
        Hashtbl.remove rid_tbl out.o_rid;
        let resp =
          match out.o_result with
          | Ok r ->
              {
                r_rid = w_rid;
                r_values = r.values;
                r_batch = r.batch;
                r_error = None;
              }
          | Error e ->
              {
                r_rid = w_rid;
                r_values = [||];
                r_batch = 0;
                r_error = Some (E.to_string e);
              }
        in
        ignore (write_frame fd resp)
  in
  let* eng =
    create ~incidents ?pool ?deadline_ms ?breaker_threshold ?dwell_budget_us
      ~queue ~batch_max ~flush_us ~respond models
  in
  (try Unix.unlink listen with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let* () =
    try
      Unix.bind srv (Unix.ADDR_UNIX listen);
      Unix.listen srv 64;
      Ok ()
    with Unix.Unix_error (err, _, _) ->
      Unix.close srv;
      E.fail ~layer:"serve" ~code:E.Capacity
        ~context:[ ("path", listen); ("errno", Unix.error_message err) ]
        "cannot bind the listening socket"
  in
  (* a client that hangs up before its reply must not kill the daemon *)
  Ipc.with_sigpipe_ignored (fun () ->
    let clients = ref [] in
    let close_client fd =
      clients := List.filter (fun c -> c <> fd) !clients;
      Hashtbl.iter
        (fun rid (cfd, _) -> if cfd = fd then Hashtbl.remove rid_tbl rid)
        (Hashtbl.copy rid_tbl);
      try Unix.close fd with Unix.Unix_error _ -> ()
    in
    let handle_client fd =
      match Ipc.read fd with
      | Ok None | Error _ -> close_client fd
      | Ok (Some (req : wire_request)) -> (
          let rid = !next_rid in
          incr next_rid;
          Hashtbl.replace rid_tbl rid (fd, req.w_rid);
          match submit eng ~rid ~model:req.w_model with
          | Ok () -> ()
          | Error e ->
              Hashtbl.remove rid_tbl rid;
              incr completed;
              ignore
                (write_frame fd
                   {
                     r_rid = req.w_rid;
                     r_values = [||];
                     r_batch = 0;
                     r_error = Some (E.to_string e);
                   }))
    in
    Incident.record incidents Incident.Run_start
      [ ("what", "promise-serve"); ("socket", listen) ];
    while
      (not (Supervisor.stop_requested stop))
      && (max_requests = 0 || !completed < max_requests)
    do
      let timeout =
        match next_deadline_ns eng with
        | Some ns ->
            let dt =
              Int64.to_float (Int64.sub ns (Clock.monotonic_ns ())) /. 1e9
            in
            Float.max 0.0 (Float.min dt 0.05)
        | None -> 0.05
      in
      let readable =
        try
          let r, _, _ = Unix.select (srv :: !clients) [] [] timeout in
          r
        with Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          if fd = srv then begin
            match Unix.accept srv with
            | client, _ -> clients := client :: !clients
            | exception Unix.Unix_error _ -> ()
          end
          else if List.mem fd !clients then handle_client fd)
        readable;
      pump eng;
      flush_due eng
    done;
    pump eng;
    flush_all eng;
    Incident.record incidents Incident.Run_end
      [ ("what", "promise-serve"); ("completed", string_of_int !completed) ];
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !clients;
    (try Unix.close srv with Unix.Unix_error _ -> ());
    try Unix.unlink listen with Unix.Unix_error _ -> ());
  Ok { d_completed = !completed; d_stats = stats eng }

(* ------------------------------------------------------------------ *)
(* Probe client                                                         *)
(* ------------------------------------------------------------------ *)

type probe_summary = {
  p_sent : int;
  p_ok : int;
  p_rejected : int;
  p_max_batch : int;
}

let probe ?(connect_timeout_ms = 10_000.0) ?(requests = 8) ~path ~model () =
  (* A daemon is free to close the connection mid-pipeline (drained,
     max-requests reached, crashed): without this, the next write kills
     the probe with SIGPIPE — which a caller cannot tell apart from a
     hang. Ignore it for the probe's duration; writes then surface as
     typed EPIPE errors. *)
  Ipc.with_sigpipe_ignored @@ fun () ->
  let deadline =
    Int64.add (Clock.monotonic_ns ())
      (Int64.of_float (connect_timeout_ms *. 1e6))
  in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Clock.monotonic_ns () > deadline then
          E.fail ~layer:"serve" ~code:E.Timeout
            ~context:[ ("path", path) ]
            "no daemon answered within the connect timeout"
        else begin
          Clock.sleep_ms 20.0;
          connect ()
        end
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        E.fail ~layer:"serve" ~code:E.Capacity
          ~context:[ ("path", path); ("errno", Unix.error_message err) ]
          "cannot connect to the daemon"
  in
  match connect () with
  | Error e -> Error e
  | Ok fd -> (
      let finish r =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        r
      in
      let rec send i =
        if i = requests then Ok ()
        else
          match Ipc.write fd { w_rid = i; w_model = model } with
          | Ok () -> send (i + 1)
          | Error e -> Error e
      in
      match send 0 with
      | Error e -> finish (Error e)
      | Ok () ->
          let ok = ref 0 and rejected = ref 0 and max_batch = ref 0 in
          let rec recv n =
            if n = 0 then Ok ()
            else
              match Ipc.read fd with
              | Error e -> Error e
              | Ok None ->
                  (* clean EOF mid-pipeline: not a hang, not a transport
                     fault — the daemon finished with us early. Say how
                     far the conversation got. *)
                  E.fail ~layer:"serve" ~code:E.Capacity
                    ~context:
                      [
                        ( "replies-before-close",
                          string_of_int (requests - n) );
                        ("missing", string_of_int n);
                      ]
                    "daemon closed the connection mid-pipeline"
              | Ok (Some (resp : wire_response)) ->
                  (match resp.r_error with
                  | None ->
                      incr ok;
                      if resp.r_batch > !max_batch then
                        max_batch := resp.r_batch
                  | Some _ -> incr rejected);
                  recv (n - 1)
          in
          finish
            (let* () = recv requests in
             Ok
               {
                 p_sent = requests;
                 p_ok = !ok;
                 p_rejected = !rejected;
                 p_max_batch = !max_batch;
               }))

(* ------------------------------------------------------------------ *)
(* Self-test load generator                                             *)
(* ------------------------------------------------------------------ *)

type load = Closed_loop of int

type load_report = {
  l_served : int;
  l_rejected : int;
  l_timeouts : int;
  l_failures : int;
  l_seconds : float;
  l_rps : float;
  l_p50_ms : float;
  l_p95_ms : float;
  l_p99_ms : float;
  l_mean_batch : float;
  l_max_batch : float;
  l_batch_hist : (float * int) list;
  l_max_queue_depth : int;
  l_digest : string;
}

(* ------------------------------------------------------------------ *)
(* Chaos soak                                                           *)
(* ------------------------------------------------------------------ *)

type chaos_report = {
  c_requests : int;
  c_admitted : int;
  c_served : int;
  c_timeouts : int;
  c_failed : int;
  c_shed : int;
  c_rejected : int;
  c_lost : int;
  c_multi : int;
  c_healed : int;
  c_fallback_batches : int;
  c_breaker_opens : int;
  c_survivors_checked : int;
  c_survivor_mismatches : int;
  c_ipc_faults : int;
  c_checkpoint_failures : int;
  c_sink_degraded : int;
  c_events : string;
}

(* Canonicalize one incident JSONL line: drop the [seq]/[t_ms]/[wall]
   prefix (wall-clock and per-sink sequencing are the only
   nondeterministic bytes in the log) and keep everything from ["kind"]
   on. Two soaks with the same seed must agree on the result byte for
   byte. *)
let canonical_incident_line line =
  let needle = "\"kind\"" in
  let nlen = String.length needle and llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> Some ("{" ^ String.sub line i (llen - i))
  | None -> None

let read_lines path =
  match open_in path with
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in_noerr ic;
            List.rev acc
      in
      go []
  | exception Sys_error _ -> []

(* The seeded soak: a virtual-clock drive of the full service path with
   a scheduled failure storm — bank death mid-service, a machine-level
   blackout that defeats the healing ladder (so the breaker trips), a
   dispatcher stall (so dwell shedding and watchdog timeouts fire), IPC
   fault injection on a response echo loop, checkpoint fsync failures,
   and ENOSPC on the incident sink itself. Everything that moves is
   derived from [seed] and the virtual clock, so the same seed replays
   the identical incident sequence byte for byte, and survivors must be
   bitwise what a fault-free engine serves. *)
let chaos_run ?(seed = 0) ?(requests = 240) ~incident_path ~checkpoint_path
    ~model () =
  let base_schedule =
    [
      ("ipc.read", Failpoint.Fail_prob 0.05);
      ("ipc.write", Failpoint.Eintr);
      ("checkpoint.save", Failpoint.Fail_prob 0.5);
      ("incident.write", Failpoint.Fail_prob 0.02);
      ("queue.admit", Failpoint.Fail_prob 0.02);
      ("serve.flush", Failpoint.Fail_prob 0.03);
    ]
  in
  let blackout_schedule =
    (* every execute faults: the ladder's fallback rung fails too, which
       is what trips the breaker *)
    ("machine.execute", Failpoint.Fail_prob 1.0) :: base_schedule
  in
  (try Sys.remove incident_path with Sys_error _ -> ());
  (try Sys.remove (incident_path ^ ".1") with Sys_error _ -> ());
  let* incidents = Incident.to_file incident_path in
  let m = model () in
  let name = model_name m in
  let counts = Array.make requests 0 in
  let values : float array option array = Array.make requests None in
  let timeouts = ref 0 and failed = ref 0 and shed_out = ref 0 in
  let ipc_faults = ref 0 in
  let ckpt_fails = ref 0 and ckpt_saves = ref 0 in
  let outcomes = ref 0 in
  let ckpt_digest =
    Promise_core.Checkpoint.digest_of_config ~kind:"chaos"
      [ string_of_int seed; string_of_int requests ]
  in
  (* Response echo: every outcome is marshalled through a pipe with the
     armed [ipc.*] sites — frames either arrive intact (short
     writes/EINTR absorbed by the transfer loops) or fail with the
     typed truncation error, never silently corrupt. *)
  let echo (out : outcome) =
    match Unix.pipe () with
    | exception Unix.Unix_error _ -> ()
    | r, w ->
        let payload =
          match out.o_result with
          | Ok rep -> (out.o_rid, rep.values)
          | Error e -> (out.o_rid, [| float_of_int (String.length (E.to_string e)) |])
        in
        (match Ipc.write w payload with
        | Ok () -> (
            match Ipc.read r with
            | Ok (Some (rid, _)) when rid = out.o_rid -> ()
            | Ok _ | Error _ -> incr ipc_faults)
        | Error _ -> incr ipc_faults);
        (try Unix.close r with Unix.Unix_error _ -> ());
        (try Unix.close w with Unix.Unix_error _ -> ())
  in
  let respond (out : outcome) =
    incr outcomes;
    if out.o_rid >= 0 && out.o_rid < requests then begin
      counts.(out.o_rid) <- counts.(out.o_rid) + 1;
      match out.o_result with
      | Ok rep -> values.(out.o_rid) <- Some rep.values
      | Error { E.code = E.Timeout; _ } -> incr timeouts
      | Error { E.code = E.Overloaded; _ } -> incr shed_out
      | Error _ -> incr failed
    end;
    echo out;
    if !outcomes mod 32 = 0 then begin
      incr ckpt_saves;
      match
        Promise_core.Checkpoint.save ~path:checkpoint_path
          ~config_digest:ckpt_digest (!outcomes, !timeouts, !failed)
      with
      | Ok () -> ()
      | Error e ->
          incr ckpt_fails;
          (* log the code, not the message: the message embeds the
             checkpoint path, which would break transcript byte-identity
             across working directories *)
          Incident.record incidents Incident.Checkpoint_write
            [ ("status", "failed"); ("code", E.code_name e.E.code) ]
    end
  in
  let vnow = ref 0L in
  let clock () = !vnow in
  let* eng =
    create ~clock ~incidents ~deadline_ms:10.0 ~mode:Batched
      ~breaker_threshold:3 ~breaker_cooldown_ms:10.0 ~dwell_budget_us:3000
      ~queue:64 ~batch_max:8 ~flush_us:2000 ~respond [ m ]
  in
  let* () = Failpoint.configure ~seed base_schedule in
  Incident.record incidents Incident.Run_start
    [
      ("what", "chaos-soak");
      ("seed", string_of_int seed);
      ("requests", string_of_int requests);
    ];
  (* The storm timeline, keyed to arrival progress rather than wall
     positions so every phase is guaranteed to overlap live traffic
     whatever the seed draws for inter-arrival times: kill a bank at
     15% of the offered load, revive it at 40%, stall the dispatcher
     through [50%, 65%), black out the machine through [75%, 90%). *)
  let frac pct = requests * pct / 100 in
  let transient = frac 5 in
  let bank_kill = frac 15 and bank_revive = frac 40 in
  let stall_from = frac 50 and stall_to = frac 65 in
  let blackout_from = frac 75 and blackout_to = frac 90 in
  let ms v = Int64.of_float (v *. 1e6) in
  let tick_ns = 200_000L (* 0.2 virtual ms per tick *) in
  let arr_rng = Rng.create seed in
  let interval () =
    (* seeded exponential inter-arrivals, mean 0.4 virtual ms *)
    let u = Float.max 1e-12 (Rng.uniform arr_rng ~lo:0.0 ~hi:1.0) in
    Int64.of_float (-.Float.log u *. 0.4e6)
  in
  let next_arrival = ref (interval ()) in
  let issued = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let zapped = ref false in
  let killed = ref false and revived = ref false in
  let blackout = ref false and restored = ref false in
  let fail_conf = ref None in
  let reconfigure schedule =
    match Failpoint.configure ~seed schedule with
    | Ok () -> ()
    | Error e -> if !fail_conf = None then fail_conf := Some e
  in
  let hard_stop = ms 2_000.0 in
  while
    (!issued < requests || !outcomes < !admitted) && !vnow < hard_stop
  do
    vnow := Int64.add !vnow tick_ns;
    (* scheduled hardware storm *)
    if (not !zapped) && !issued >= transient then begin
      zapped := true;
      (* one transient analog fault against healthy hardware: BIST
         finds nothing, the retry succeeds — the "healed" rung *)
      reconfigure (("machine.execute", Failpoint.Fail_once) :: base_schedule);
      Incident.record incidents Incident.Chaos [ ("what", "transient-fault") ]
    end;
    if (not !killed) && !issued >= bank_kill then begin
      killed := true;
      (match
         Promise_arch.Faults.with_dead_adc_units Promise_arch.Faults.none
           Promise_analog.Adc.units_per_bank
       with
      | Ok f -> Promise_arch.Bank.set_faults (Machine.bank m.m_machine 0) f
      | Error _ -> ());
      Incident.record incidents Incident.Chaos
        [ ("what", "bank-kill"); ("bank", "0") ]
    end;
    if (not !revived) && !issued >= bank_revive then begin
      revived := true;
      Promise_arch.Bank.set_faults
        (Machine.bank m.m_machine 0)
        Promise_arch.Faults.none;
      Incident.record incidents Incident.Chaos
        [ ("what", "bank-revive"); ("bank", "0") ]
    end;
    if (not !blackout) && !issued >= blackout_from then begin
      blackout := true;
      reconfigure blackout_schedule;
      Incident.record incidents Incident.Chaos [ ("what", "blackout-start") ]
    end;
    if (not !restored) && !issued >= blackout_to then begin
      restored := true;
      reconfigure base_schedule;
      Incident.record incidents Incident.Chaos [ ("what", "blackout-end") ]
    end;
    (* seeded open-loop arrivals (they continue through the stall) *)
    while !issued < requests && !next_arrival <= !vnow do
      (match submit eng ~rid:!issued ~model:name with
      | Ok () -> incr admitted
      | Error _ -> incr rejected);
      incr issued;
      next_arrival := Int64.add !next_arrival (interval ())
    done;
    (* the dispatcher stalls for a window: arrivals keep landing, the
       inbox head ages past the dwell budget (shedding), and the head
       requests blow the 10 ms watchdog (timeouts at resume) *)
    let stalled = !issued >= stall_from && !issued < stall_to in
    if not stalled then begin
      pump eng;
      flush_due eng
    end
  done;
  pump eng;
  flush_all eng;
  (* drain breaker-open shedding: anything still unanswered was pending
     behind an open breaker; keep flushing through the cooldown *)
  let guard = ref 0 in
  while !outcomes < !admitted && !guard < 10_000 do
    incr guard;
    vnow := Int64.add !vnow tick_ns;
    pump eng;
    flush_all eng
  done;
  let s = stats eng in
  Incident.record incidents Incident.Run_end
    [
      ("what", "chaos-soak");
      ("admitted", string_of_int !admitted);
      ("outcomes", string_of_int !outcomes);
      ("served", string_of_int s.served);
    ];
  Incident.close incidents;
  Failpoint.reset ();
  let* () = match !fail_conf with Some e -> Error e | None -> Ok () in
  (* fault-free twin pass: same rids on a fresh engine with no
     failpoints, no storm — the bit-identity baseline for survivors. It
     fails closed: a twin engine that cannot be built is an error, and a
     survivor the twin has no value for counts as a mismatch. *)
  let clean_values : float array option array = Array.make requests None in
  let clean_respond (out : outcome) =
    match out.o_result with
    | Ok rep when out.o_rid >= 0 && out.o_rid < requests ->
        clean_values.(out.o_rid) <- Some rep.values
    | _ -> ()
  in
  let cm = model () in
  let* ceng =
    create ~clock:(fun () -> 0L) ~mode:Batched ~queue:64 ~batch_max:8
      ~flush_us:2000 ~respond:clean_respond [ cm ]
  in
  for rid = 0 to requests - 1 do
    ignore (submit ceng ~rid ~model:(model_name cm));
    pump ceng;
    if rid mod 32 = 31 then flush_all ceng
  done;
  flush_all ceng;
  let survivors = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun rid v ->
      match (v, clean_values.(rid)) with
      | None, _ -> ()
      | Some got, Some want
        when Array.length got = Array.length want
             && Array.for_all2
                  (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                  got want ->
          incr survivors
      | Some _, _ ->
          incr survivors;
          incr mismatches)
    values;
  let lost = ref 0 and multi = ref 0 in
  Array.iteri
    (fun rid c ->
      if rid < !issued then begin
        ignore rid;
        if c > 1 then incr multi
      end)
    counts;
  (* lost = admitted minus rids that got at least one outcome; shed and
     rejected offers never entered, so they owe nothing *)
  let answered = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  lost := !admitted - answered + !multi;
  let lines = read_lines incident_path in
  let canon = List.filter_map canonical_incident_line lines in
  let count_kind k =
    List.length
      (List.filter
         (fun l ->
           let needle = Printf.sprintf "{\"kind\":\"%s\"" k in
           String.length l >= String.length needle
           && String.sub l 0 (String.length needle) = needle)
         canon)
  in
  let breaker_opens =
    List.length
      (List.filter
         (fun l ->
           let needle = "{\"kind\":\"breaker\"" in
           String.length l >= String.length needle
           && String.sub l 0 (String.length needle) = needle
           &&
           let sub = "\"state\":\"open\"" in
           let rec find i =
             i + String.length sub <= String.length l
             && (String.sub l i (String.length sub) = sub || find (i + 1))
           in
           find 0)
         canon)
  in
  let events =
    String.concat "\n" canon
    ^ Printf.sprintf
        "\nsummary admitted=%d served=%d timeouts=%d failed=%d shed=%d \
         rejected=%d healed=%d fallback=%d ipc_faults=%d ckpt=%d/%d"
        !admitted s.served !timeouts !failed !shed_out !rejected s.healed
        s.fallback_batches !ipc_faults
        (!ckpt_saves - !ckpt_fails)
        !ckpt_saves
    ^ "\n"
  in
  Ok
    {
      c_requests = requests;
      c_admitted = !admitted;
      c_served = s.served;
      c_timeouts = !timeouts;
      c_failed = !failed;
      c_shed = !shed_out;
      c_rejected = !rejected;
      c_lost = max 0 !lost;
      c_multi = !multi;
      c_healed = s.healed;
      c_fallback_batches = s.fallback_batches;
      c_breaker_opens = breaker_opens;
      c_survivors_checked = !survivors;
      c_survivor_mismatches = !mismatches;
      c_ipc_faults = !ipc_faults;
      c_checkpoint_failures = !ckpt_fails;
      c_sink_degraded = count_kind "sink-degraded";
      c_events = events;
    }

let load_run ?(jobs = 1) ?(incidents = Incident.null) ?deadline_ms ~mode
    ~queue ~batch_max ~flush_us ~requests ~load ~model () =
  let m = model () in
  let name = model_name m in
  let outputs : float array option array = Array.make requests None in
  let finished = ref 0 in
  let respond (out : outcome) =
    incr finished;
    match out.o_result with
    | Ok r -> outputs.(out.o_rid) <- Some r.values
    | Error _ -> ()
  in
  Pool.with_pool ~jobs (fun pool ->
      let* eng =
        create ~incidents ~pool ?deadline_ms ~mode ~queue ~batch_max ~flush_us
          ~respond [ m ]
      in
      let t0 = Clock.monotonic_ns () in
      let issued = ref 0 in
      let offer () =
        (match submit eng ~rid:!issued ~model:name with
        | Ok () -> ()
        | Error _ -> incr finished (* rejected: no outcome will arrive *));
        incr issued
      in
      let (Closed_loop conc) = load in
      let conc = max 1 conc in
      while !finished < requests do
        while !issued < requests && !issued - !finished < conc do
          offer ()
        done;
        pump eng;
        (* the window is full (or the stream is over): nothing more can
           arrive before a response, so drain eagerly — a closed system
           never waits out the flush deadline *)
        flush_all eng
      done;
      let seconds =
        Int64.to_float (Int64.sub (Clock.monotonic_ns ()) t0) /. 1e9
      in
      let s = stats eng in
      let digest =
        let buf = Buffer.create 4096 in
        Array.iteri
          (fun rid o ->
            match o with
            | None -> ()
            | Some vs ->
                Buffer.add_string buf (string_of_int rid);
                Array.iter
                  (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v))
                  vs)
          outputs;
        Digest.to_hex (Digest.string (Buffer.contents buf))
      in
      let pct q = Histogram.percentile s.latency_ns q /. 1e6 in
      Ok
        {
          l_served = s.served;
          l_rejected = s.rejected;
          l_timeouts = s.timeouts;
          l_failures = s.failures;
          l_seconds = seconds;
          l_rps =
            (if seconds > 0.0 then float_of_int s.served /. seconds else 0.0);
          l_p50_ms = pct 0.5;
          l_p95_ms = pct 0.95;
          l_p99_ms = pct 0.99;
          l_mean_batch = Histogram.mean s.batch_sizes;
          l_max_batch = Histogram.max_value s.batch_sizes;
          l_batch_hist = Histogram.buckets s.batch_sizes;
          l_max_queue_depth = s.queue.Queue_bounded.max_depth;
          l_digest = digest;
        })

module For_tests = struct
  let flush_due = flush_due
  let next_deadline_ns = next_deadline_ns
  let stats = stats
end
