type port = W_input | X_input [@@deriving eq, show { with_path = false }]

type edge = { producer : int; consumer : int; port : port }

module Int_map = Map.Make (Int)

type t = { nodes : Abstract_task.t Int_map.t; edges : edge list; next : int }

let empty = { nodes = Int_map.empty; edges = []; next = 0 }

let add_task g task =
  let id = g.next in
  (id, { g with nodes = Int_map.add id task g.nodes; next = id + 1 })

let task g id = Int_map.find id g.nodes
let n_tasks g = Int_map.cardinal g.nodes
let tasks g = Int_map.bindings g.nodes
let edges g = g.edges

let successors g id =
  List.filter_map
    (fun e -> if e.producer = id then Some (e.consumer, e.port) else None)
    g.edges

let predecessors g id =
  List.filter_map
    (fun e -> if e.consumer = id then Some (e.producer, e.port) else None)
    g.edges

let reachable g ~from =
  let visited = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      List.iter (fun (s, _) -> go s) (successors g id)
    end
  in
  go from;
  visited

let connect g ~producer ~consumer ~port =
  if not (Int_map.mem producer g.nodes) then
    Error (Printf.sprintf "unknown producer node %d" producer)
  else if not (Int_map.mem consumer g.nodes) then
    Error (Printf.sprintf "unknown consumer node %d" consumer)
  else if producer = consumer then Error "self edge would create a cycle"
  else if Hashtbl.mem (reachable g ~from:consumer) producer then
    Error
      (Printf.sprintf "edge %d -> %d would create a cycle" producer consumer)
  else Ok { g with edges = { producer; consumer; port } :: g.edges }

let ( let* ) = Result.bind

let of_tasks task_list =
  let g, ids =
    List.fold_left
      (fun (g, ids) task ->
        let id, g = add_task g task in
        (g, (id, task) :: ids))
      (empty, []) task_list
  in
  let ids = List.rev ids in
  (* Connect by array-name matching: later tasks consume earlier outputs. *)
  List.fold_left
    (fun acc (cid, (ctask : Abstract_task.t)) ->
      let* g = acc in
      let find_producer array_name =
        List.find_opt
          (fun (pid, (ptask : Abstract_task.t)) ->
            pid < cid && String.equal ptask.Abstract_task.output array_name)
          (List.rev ids)
      in
      let connect_port g port array_name =
        match find_producer array_name with
        | Some (pid, _) -> connect g ~producer:pid ~consumer:cid ~port
        | None -> Ok g
      in
      let* g = connect_port g W_input ctask.Abstract_task.w in
      if Abstract_task.uses_x ctask then
        connect_port g X_input ctask.Abstract_task.x
      else Ok g)
    (Ok g) ids

let topological_order g =
  let in_degree = Hashtbl.create 16 in
  Int_map.iter (fun id _ -> Hashtbl.replace in_degree id 0) g.nodes;
  List.iter
    (fun e ->
      Hashtbl.replace in_degree e.consumer
        (Hashtbl.find in_degree e.consumer + 1))
    g.edges;
  let ready =
    Int_map.fold
      (fun id _ acc -> if Hashtbl.find in_degree id = 0 then id :: acc else acc)
      g.nodes []
    |> List.sort compare
  in
  let rec go ready acc =
    match ready with
    | [] -> List.rev acc
    | id :: rest ->
        let newly_ready =
          List.filter_map
            (fun (s, _) ->
              let d = Hashtbl.find in_degree s - 1 in
              Hashtbl.replace in_degree s d;
              if d = 0 then Some s else None)
            (successors g id)
        in
        go (List.sort compare (rest @ newly_ready)) (id :: acc)
  in
  go ready []

let is_linear_pipeline g =
  Int_map.for_all
    (fun id _ ->
      List.length (predecessors g id) <= 1 && List.length (successors g id) <= 1)
    g.nodes

let map_tasks g f = { g with nodes = Int_map.mapi f g.nodes }

let pp ppf g =
  Format.fprintf ppf "@[<v>IR graph: %d tasks@," (n_tasks g);
  Int_map.iter
    (fun id t ->
      Format.fprintf ppf "  [%d] %s: %a / %a / %a (N=%d, iters=%d, swing=%d)@,"
        id t.Abstract_task.name Abstract_task.pp_vec_op t.Abstract_task.vec_op
        Abstract_task.pp_red_op t.Abstract_task.red_op
        Abstract_task.pp_digital_op t.Abstract_task.digital_op
        t.Abstract_task.vector_len t.Abstract_task.loop_iterations
        t.Abstract_task.swing)
    g.nodes;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %d -> %d (%a)@," e.producer e.consumer pp_port
        e.port)
    g.edges;
  Format.fprintf ppf "@]"

module For_tests = struct
  let empty = empty
  let add_task = add_task
  let edges = edges
  let connect = connect
  let is_linear_pipeline = is_linear_pipeline
end
