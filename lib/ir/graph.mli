(** The PROMISE compiler IR: a DAG of AbstractTasks (paper §4.2).

    An edge P → C means C reads (as its W or X input) the array P
    produces. Loops {e around} tasks live on the host, so the IR is
    acyclic even though each task iterates internally ([RPT_NUM]). *)

type port = W_input | X_input

val equal_port : port -> port -> bool

type edge = { producer : int; consumer : int; port : port }

type t

(** [task g id]. Raises [Not_found]. *)
val task : t -> int -> Abstract_task.t

val n_tasks : t -> int
val tasks : t -> (int * Abstract_task.t) list

(** [of_tasks tasks] — build a graph from tasks in order, inferring
    edges by array-name matching (producer.output = consumer.w / .x). *)
val of_tasks : Abstract_task.t list -> (t, string) result

(** [topological_order g] — node ids, producers before consumers. *)
val topological_order : t -> int list

(** [predecessors g id] / [successors g id]. *)
val predecessors : t -> int -> (int * port) list
val successors : t -> int -> (int * port) list

(** [map_tasks g f] — rewrite every task (e.g. assign swings). *)
val map_tasks : t -> (int -> Abstract_task.t -> Abstract_task.t) -> t

val pp : Format.formatter -> t -> unit

(** {2 Test hooks} *)

module For_tests : sig
  val empty : t

  (** [add_task g task] — returns the node id and the extended graph. *)
  val add_task : t -> Abstract_task.t -> int * t

  val edges : t -> edge list

  (** [connect g ~producer ~consumer ~port] — add a dataflow edge.
      [Error] if it would create a cycle or an id is unknown. *)
  val connect :
    t -> producer:int -> consumer:int -> port:port -> (t, string) result

  (** [is_linear_pipeline g] — every node has ≤1 predecessor and ≤1
      successor (the DNN shape: a sequential pipeline of layers). *)
  val is_linear_pipeline : t -> bool
end
