(** A long-running job as data, and the two executors that run it.

    A workload is [n] independent, deterministic items: the fault
    campaign's baselines and grid cells, the report's sections. It says
    {e what} to compute; {!run_local} (one process, supervised,
    checkpointed) and {!run_fleet} (forked crash-isolated workers) say
    {e how}. Both return the items' results in item order, so the same
    workload assembles byte-identical output under either executor, at
    any job, shard or worker count, and across kill/resume cycles.

    A {!job} adds the rendering around a workload: the header printed
    before it runs and the step from its results to the printed output
    and a verdict. {!run_job} runs one under any executor, so each CLI
    names a job and an executor and writes neither step itself. *)

type 'a t = {
  kind : string;  (** names the workload in incidents and digests *)
  digest : string;
      (** the run configuration ({!Checkpoint.digest_of_config}); a
          checkpoint written under another digest is refused *)
  labels : string array;
      (** one per item, naming it in incidents and errors; its length
          is the item count *)
  run : int -> 'a;
      (** compute item [i]. It may raise (the executors capture it as
          that item's [Error]); it must depend only on [i], and its
          result must survive [Marshal] (plain data, no closures). *)
}

type 'r ending =
  | Done of 'r
      (** every item accounted for: for {!outcome}, the results in item
          order (an [Error] slot is a quarantined item) and the fleet
          summary, [Some] from {!run_fleet}; for {!run_job}, the job's
          verdict *)
  | Interrupted of { completed : int; total : int }
      (** the stop flag was raised; progress is in the checkpoint.
          Counts are items for {!run_local}, shards for {!run_fleet}. *)
  | Rejected of Error.t
      (** the checkpoint belongs to a different configuration or
          payload format, or the request was invalid *)

type 'a outcome = (('a, Error.t) result array * Fleet.summary option) ending

val run_local :
  ?pool:Pool.t ->
  ?on_checkpoint:(completed:int -> total:int -> unit) ->
  Supervisor.session ->
  'a t ->
  'a outcome
(** Run the items in pool-width chunks, each item under the session's
    deadline/retry/quarantine policy ({!Supervisor.map_result}). The
    stop flag is polled before every chunk; progress is checkpointed
    (and [on_checkpoint] called) after every chunk and on interrupt. A
    resumed run computes only the missing items; a completed run
    removes its checkpoint. [run_local Supervisor.plain w] is the plain
    unsupervised run. *)

val run_fleet :
  ?on_shard_done:(shard:int -> completed:int -> total:int -> unit) ->
  Fleet.config ->
  shards:int ->
  'a t ->
  'a outcome
(** Run the items across a {!Fleet}: at most [shards] contiguous item
    ranges ({!Fleet.ranges}), one per shard. An exception from one item
    becomes that item's [Error]; a quarantined shard becomes an [Error]
    in every item it covered. An empty workload forks nothing. Must be
    called before any domain exists in the process (see {!Fleet.run}). *)

type 'a job = {
  workload : 'a t;
  header : Format.formatter -> unit;  (** printed before the run starts *)
  render :
    Format.formatter -> ('a, Error.t) result array -> (unit, string) result;
      (** print the results of a completed run; [Error] is the job's
          failing verdict *)
}

val run_job :
  Format.formatter ->
  ('a t -> 'a outcome) ->
  'a job ->
  (unit, string) result ending
(** [run_job ppf execute job] prints [job]'s header, runs its workload
    through [execute] (a partial application of {!run_local} or
    {!run_fleet}) and, once every item is in, renders the results and
    returns the verdict. An interrupted or rejected run renders
    nothing. *)
