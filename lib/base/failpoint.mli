(** Deterministic fault injection at named sites.

    A failpoint is a named hook compiled into an IO or dispatch
    boundary — [Ipc] reads and writes, [Checkpoint.save], the
    [Incident] file sink, [Queue_bounded] admission, the serve engine's
    flush/dispatch path, [Machine]/[Runtime] execution. In production
    every site is off and a check is one branch-predictable atomic load
    ({!check} returns [None] without taking a lock). Under test or
    chaos, {!configure} arms sites with per-site policies; every
    probabilistic decision is drawn from a splitmix64 stream seeded per
    (seed, site name), so a run with the same seed and the same call
    sequence replays its fault schedule bit-identically — fault
    injection is a first-class deterministic layer, not ad-hoc test
    scaffolding.

    Site names are a {e stable interface}, like the [P-*] diagnostic
    codes: tests, chaos schedules and CI greps depend on them. The
    catalog lives in {!sites}; configuring an unknown site is a typed
    error (a typo must not silently arm nothing).

    Configuration comes from direct {!configure} calls (tests, the
    chaos soak) or from [promise-serve --failpoints], which uses the
    {!parse_spec} grammar

    {v site:policy[,site:policy...]
       policy := off | fail_once | eintr | fail_prob=P | delay_ns=N v}

    e.g. [--failpoints ipc.read:eintr,serve.dispatch:fail_prob=0.05]. *)

(** What an armed site does when its check fires. *)
type policy =
  | Off  (** never fires (the parked state; keeps the site's stats) *)
  | Fail_once  (** fire on the first check, then behave as [Off] *)
  | Fail_prob of float  (** fire with probability [p] per check, seeded *)
  | Delay_ns of int64  (** never fail; delay the caller that long *)
  | Eintr
      (** interrupt the syscall-shaped operation: the site simulates
          EINTR / a short transfer and the caller must retry — fires
          with probability 1/2 per check (seeded) so retry loops make
          progress *)

(** What a fired check tells the site to do. *)
type fire =
  | Fail  (** inject the site's failure (typed error / EOF / ENOSPC) *)
  | Delay of int64  (** sleep that many ns, then proceed *)
  | Interrupt  (** simulate EINTR or a 1-byte short transfer, retry *)

val sites : string list
(** The stable site catalog. Current sites:
    [ipc.read], [ipc.write], [checkpoint.save], [incident.write],
    [incident.rotate], [queue.admit], [serve.flush], [serve.dispatch],
    [machine.execute], [runtime.run]. *)

val configure :
  ?seed:int -> (string * policy) list -> (unit, Error.t) result
(** [configure ~seed assignments] — arm the listed sites (replacing the
    whole previous configuration) and enable checking. Unknown site
    names and out-of-range probabilities are typed [Invalid_operand]
    errors, and leave the previous configuration untouched. [seed]
    (default 0) roots every site's decision stream. *)

val parse_spec : string -> ((string * policy) list, Error.t) result
(** Parse the [site:policy,...] grammar above. Typed errors name the
    offending clause; an empty spec is [Ok []]. *)

val configure_spec : ?seed:int -> string -> (unit, Error.t) result
(** [parse_spec] then [configure]. *)

val check : string -> fire option
(** [check site] — consult the site. [None] (proceed normally) unless
    failpoints are enabled {e and} [site] is armed {e and} its policy
    fires. The disabled fast path is one atomic load, no lock, no
    allocation. Checking a site that is not in {!sites} is allowed and
    always [None] — callers never validate, only {!configure} does. *)

val enabled : unit -> bool
(** Whether any site is armed ({!check}'s fast-path gate). *)

val reset : unit -> unit
(** Disarm everything and drop all stats; {!enabled} becomes false. *)

type stat = { site : string; hits : int; fires : int }
(** Per-site accounting: [hits] checks consulted, [fires] triggered. *)

val stats : unit -> stat list
(** Stats of every armed site, in configuration order. *)
