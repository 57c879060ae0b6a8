(** Length-prefixed marshalled message frames over file descriptors.

    The wire protocol between a fleet parent and its forked workers:
    every message is one frame — a 4-byte magic, a 4-byte big-endian
    payload length, then the [Marshal]-encoded payload. Framing makes
    worker death detectable and safe: a clean EOF (the peer exited
    between frames) is distinguished from a truncated frame (the peer
    was killed mid-write), and a corrupt length field is rejected
    before any allocation.

    Like {!Checkpoint}, the payload goes through [Marshal], so {!read}
    is only type-safe when both ends agree on the message type — keep
    one message type per channel direction.

    Reads and writes retry on [EINTR] and loop over short transfers;
    {!write} reports a broken pipe ([EPIPE]) as a typed error rather
    than a signal, so callers must have [SIGPIPE] ignored: run them
    under {!with_sigpipe_ignored}. *)

val write : Unix.file_descr -> 'a -> (unit, Error.t) result
(** [write fd v] — marshal [v] and send one frame. Errors: the peer
    closed its end ([EPIPE]), the descriptor is invalid, or the
    payload exceeds 256 MiB (a length field beyond it is treated as
    corruption, not an allocation request). *)

val read : Unix.file_descr -> ('a option, Error.t) result
(** [read fd] — block until one full frame arrives and unmarshal it.
    [Ok None] is a clean EOF at a frame boundary (the peer exited
    idle); a truncated frame, bad magic or corrupt length is an
    [Error] (the peer died mid-message). *)

val with_sigpipe_ignored : (unit -> 'a) -> 'a
(** [with_sigpipe_ignored f] — run [f] with [SIGPIPE] ignored, so a
    peer that closes mid-conversation surfaces as a typed [EPIPE] from
    {!write} instead of killing the process, and restore the previous
    disposition when [f] returns or raises. Where the disposition
    cannot be set, [f] runs as is. *)
