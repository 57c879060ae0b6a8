(* Spans recorded by the harness around its own calls into the
   library: name, start, end, the span that caused it, and the request
   (or operation) id they belong to. Kept in memory and written as JSON
   when the run ends; a layer's self time is its span's duration minus
   the part its child spans cover (children never overlap here: every
   traced call is sequential). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  rid : int;
  start_ns : int64;
  end_ns : int64;
}

type t = { mutable spans : span list; mutable next : int; mutable dropped : int }

(* A trace of a long serving run would otherwise grow without bound. *)
let max_spans = 50_000

let create () = { spans = []; next = 0; dropped = 0 }
let now = Promise.Clock.monotonic_ns

let record t ?(parent = -1) ~rid name ~start_ns ~end_ns =
  let id = t.next in
  t.next <- id + 1;
  if id < max_spans then
    t.spans <- { id; name; parent; rid; start_ns; end_ns } :: t.spans
  else t.dropped <- t.dropped + 1;
  id

(* [with_ t ?parent ~rid name f] — run [f id] inside a span; the span id
   is allocated before [f] runs so children can name it. *)
let with_ t ?(parent = -1) ~rid name f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = now () in
  let v = f id in
  let end_ns = now () in
  if id < max_spans then
    t.spans <- { id; name; parent; rid; start_ns; end_ns } :: t.spans
  else t.dropped <- t.dropped + 1;
  v

let duration s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* name → (summed self time ns, summed duration ns, count) *)
let by_name t =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0.0))
    t.spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = duration s in
      let self =
        d -. Option.value (Hashtbl.find_opt child_ns s.id) ~default:0.0
      in
      let s0, d0, n0 =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0.0, 0)
      in
      Hashtbl.replace tbl s.name (s0 +. self, d0 +. d, n0 + 1))
    t.spans;
  tbl

let self_ns t name =
  match Hashtbl.find_opt (by_name t) name with Some (s, _, _) -> s | None -> 0.0

let total_ns t name =
  match Hashtbl.find_opt (by_name t) name with Some (_, d, _) -> d | None -> 0.0

let durations_ns t name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) t.spans

let to_json t =
  let base =
    List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m) Int64.max_int t.spans
  in
  let spans =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("id", Json.Num (float_of_int s.id));
            ("name", Json.Str s.name);
            ("parent", Json.Num (float_of_int s.parent));
            ("rid", Json.Num (float_of_int s.rid));
            ("start_ns", Json.Num (Int64.to_float (Int64.sub s.start_ns base)));
            ("end_ns", Json.Num (Int64.to_float (Int64.sub s.end_ns base)));
          ])
      t.spans
  in
  let selves =
    Hashtbl.fold
      (fun name (self, total, n) acc ->
        ( name,
          Json.Obj
            [
              ("count", Json.Num (float_of_int n));
              ("total_ns", Json.Num total);
              ("self_ns", Json.Num self);
            ] )
        :: acc)
      (by_name t) []
    |> List.sort compare
  in
  Json.Obj
    [
      ("dropped", Json.Num (float_of_int t.dropped));
      ("self_times", Json.Obj selves);
      ("spans", Json.Arr spans);
    ]
