(** Mapping workloads onto banks and word rows (paper §3.3, "Extension to
    Large Scale Applications").

    A vector of length [vector_len] is cut into [banks × segments] slices
    of [lanes_per_bank ≤ 128] elements: element [e] lives in bank
    [e / (segments·lanes_per_bank)], segment
    [(e mod segments·lanes_per_bank) / lanes_per_bank]. Consecutive
    segments of one W row occupy consecutive word rows, so a Task covers
    a whole row in [segments] iterations with [X_PRD = segments - 1] and
    [RPT_NUM = segments·rows - 1]. *)

type plan = {
  vector_len : int;
  rows : int;  (** number of weight vectors W_j (N_o) *)
  banks : int;  (** 2^multi_bank banks per task *)
  multi_bank : int;
  segments : int;  (** word rows per vector per bank; [x_prd = segments-1] *)
  lanes_per_bank : int;
  word_rows_per_task : int;  (** per bank: [segments * rows_per_task] *)
  rows_per_task : int;  (** ≤ 128/segments and ≤ 128 (RPT_NUM limit) *)
  tasks : int;  (** row chunks = ceil (rows / rows_per_task) *)
}

(** [plan ~vector_len ~rows ()] — a placement, or [Error] when the
    vector cannot fit (needs more than 8 banks × 4 segments).
    [max_lanes] (default 128) caps the lanes used per bank — lane
    sparing plans around faulty lanes by reserving [128 - max_lanes]
    spare columns (see {!spare_map}). *)
val plan :
  ?max_lanes:int -> vector_len:int -> rows:int -> unit -> (plan, string) result

(** [plan_exn ?max_lanes ~vector_len ~rows ()]. *)
val plan_exn : ?max_lanes:int -> vector_len:int -> rows:int -> unit -> plan

(** [x_prd p] — [segments - 1]. *)
val x_prd : plan -> int

(** [chunk_rows p k] — rows covered by row-chunk [k] (the last chunk may
    be short). *)
val chunk_rows : plan -> int -> int

(** [slice_of_vector p v ~bank ~segment] — the [lanes_per_bank] codes of
    [v] that bank [bank], segment [segment] holds (zero-padded). *)
val slice_of_vector : plan -> int array -> bank:int -> segment:int -> int array

(** {2 Lane sparing} *)

(** [spare_map ~faulty] — the healthy physical lanes, ascending: logical
    lane [l] of a spared layout maps to physical lane [(spare_map
    ~faulty).(l)]. Combine with [plan ~max_lanes:(Array.length map)]
    so every slice fits in the healthy columns. *)
val spare_map : faulty:int list -> int array

(** [lane_mask_of_map map ~used] — a 128-wide boolean mask that is true
    exactly at the physical lanes [map.(0 .. used-1)]; feed it to
    {!Machine.execute} so charge sharing averages only populated
    lanes. *)
val lane_mask_of_map : int array -> used:int -> bool array
