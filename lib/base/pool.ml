(* A fixed-size Domain work pool with deterministic result ordering.

   Shape: one shared batch slot guarded by a mutex/condition pair.
   [map_*] publishes a batch (a [run : int -> unit] closure over an
   index space), the caller and the worker domains pull indices from
   an atomic counter, and the caller blocks until the completion
   counter reaches the batch size.  Each batch carries a generation
   number so a worker that drained a batch parks again instead of
   spinning on the still-published (but exhausted) slot.

   Results land at their input index, so ordering is positional no
   matter which domain computed what.  The first exception raised by
   any item is captured (with backtrace) via compare-and-set and
   re-raised in the caller once the batch has fully drained — a
   failing item never leaves another domain mid-flight.

   A map issued from *inside* a pool item (the nested case) runs
   inline in that item's domain: the shared workers are busy with the
   outer batch, so queueing would deadlock.  A domain-local flag marks
   "currently running a pool item" to detect this. *)

exception
  Item_failure of { index : int; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Item_failure { index; exn; backtrace } ->
        Some
          (Printf.sprintf
             "Pool.Item_failure(item %d: %s)%s" index
             (Printexc.to_string exn)
             (if backtrace = "" then ""
              else "\nitem backtrace:\n" ^ backtrace))
    | _ -> None)

type batch = {
  gen : int;
  n : int;
  run : int -> unit;
  next : int Atomic.t;
  completed : int Atomic.t;
  failure : (int * exn * Printexc.raw_backtrace) option Atomic.t;
}

type shared = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  map_lock : Mutex.t; (* serializes concurrent top-level maps *)
  mutable current : batch option;
  mutable generation : int;
  mutable stop : bool;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

type t = Sequential | Parallel of shared

let max_jobs = 64
let sequential = Sequential
let jobs = function Sequential -> 1 | Parallel sh -> sh.jobs
let is_parallel t = jobs t > 1

let default_jobs () =
  let requested =
    match Sys.getenv_opt "PROMISE_JOBS" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
                  | Some n when n >= 1 -> n
                  | _ -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ()
  in
  max 1 (min max_jobs requested)

(* True while the current domain is executing an item of some batch;
   used to run nested maps inline instead of deadlocking. *)
let in_item : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let record_failure b index exn =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set b.failure None (Some (index, exn, bt)))

(* Pull indices until the batch is exhausted.  Runs in workers and in
   the publishing caller alike. *)
let drain sh b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      Domain.DLS.set in_item true;
      (try b.run i with exn -> record_failure b i exn);
      Domain.DLS.set in_item false;
      let finished = 1 + Atomic.fetch_and_add b.completed 1 in
      if finished = b.n then begin
        Mutex.lock sh.mutex;
        Condition.broadcast sh.batch_done;
        Mutex.unlock sh.mutex
      end;
      loop ()
    end
  in
  loop ()

let worker sh =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock sh.mutex;
    while
      (not sh.stop)
      && (match sh.current with None -> true | Some b -> b.gen = !last_gen)
    do
      Condition.wait sh.work_available sh.mutex
    done;
    match sh.current with
    | Some b when not sh.stop ->
        last_gen := b.gen;
        Mutex.unlock sh.mutex;
        drain sh b
    | _ ->
        Mutex.unlock sh.mutex;
        running := false
  done

let create ~jobs =
  if jobs < 1 || jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs must be in 1..%d (got %d)" max_jobs
         jobs);
  if jobs = 1 then Sequential
  else begin
    let sh =
      {
        jobs;
        mutex = Mutex.create ();
        work_available = Condition.create ();
        batch_done = Condition.create ();
        map_lock = Mutex.create ();
        current = None;
        generation = 0;
        stop = false;
        closed = false;
        domains = [];
      }
    in
    sh.domains <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker sh));
    Parallel sh
  end

let shutdown = function
  | Sequential -> ()
  | Parallel sh ->
      let already =
        Mutex.lock sh.mutex;
        let c = sh.closed in
        if not c then begin
          sh.stop <- true;
          sh.closed <- true;
          Condition.broadcast sh.work_available
        end;
        Mutex.unlock sh.mutex;
        c
      in
      if not already then List.iter Domain.join sh.domains

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run one item, wrapping any escape with its index and backtrace so
   sequential and parallel maps fail identically. *)
let run_item f arr i =
  try f arr.(i)
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace
      (Item_failure
         {
           index = i;
           exn;
           backtrace = String.trim (Printexc.raw_backtrace_to_string bt);
         })
      bt

let sequential_map_array f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    (* explicit ascending loop: Array.init order is unspecified and f
       may draw from an RNG stream *)
    let out = Array.make n (run_item f arr 0) in
    for i = 1 to n - 1 do
      out.(i) <- run_item f arr i
    done;
    out
  end

let parallel_map_array sh f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    Mutex.lock sh.map_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.map_lock)
      (fun () ->
        let results = Array.make n None in
        Mutex.lock sh.mutex;
        if sh.closed then begin
          Mutex.unlock sh.mutex;
          invalid_arg "Pool: map on a shut-down pool"
        end;
        sh.generation <- sh.generation + 1;
        let b =
          {
            gen = sh.generation;
            n;
            run = (fun i -> results.(i) <- Some (f arr.(i)));
            next = Atomic.make 0;
            completed = Atomic.make 0;
            failure = Atomic.make None;
          }
        in
        sh.current <- Some b;
        Condition.broadcast sh.work_available;
        Mutex.unlock sh.mutex;
        drain sh b;
        Mutex.lock sh.mutex;
        while Atomic.get b.completed < b.n do
          Condition.wait sh.batch_done sh.mutex
        done;
        sh.current <- None;
        Mutex.unlock sh.mutex;
        (match Atomic.get b.failure with
        | Some (index, exn, bt) ->
            (* wrap instead of re-raising bare: by the time the error
               surfaces in the caller, which grid cell failed and where
               it blew up is exactly the context a campaign needs *)
            Printexc.raise_with_backtrace
              (Item_failure
                 {
                   index;
                   exn;
                   backtrace = String.trim (Printexc.raw_backtrace_to_string bt);
                 })
              bt
        | None -> ());
        Array.map
          (function
            | Some v -> v
            | None -> assert false (* completed = n implies all written *))
          results)
  end

let map_array t f arr =
  match t with
  | Sequential -> sequential_map_array f arr
  | Parallel sh ->
      if Domain.DLS.get in_item then
        (* nested: workers are occupied by the outer batch *)
        sequential_map_array f arr
      else parallel_map_array sh f arr

let map_list t f l = Array.to_list (map_array t f (Array.of_list l))

module For_tests = struct
  let create = create
  let default_jobs = default_jobs
  let shutdown = shutdown
end
