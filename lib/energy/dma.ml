module At = Promise_ir.Abstract_task
module Graph = Promise_ir.Graph
module Layout = Promise_arch.Layout

let bytes_per_cycle = 16
let energy_pj_per_byte = 1.0

let transfer_cycles ~bytes =
  if bytes < 0 then invalid_arg "Dma.transfer_cycles: negative size";
  (bytes + bytes_per_cycle - 1) / bytes_per_cycle

let transfer_energy_pj ~bytes = float_of_int bytes *. energy_pj_per_byte

(* X loads only for tasks whose X comes from outside the fabric
   (dataflow edges stay on the cross-bank rail, already priced). *)
let x_bytes_of_task g id (at : At.t) =
  let fed_by_edge =
    List.exists
      (fun (_, port) -> Graph.equal_port port Graph.X_input)
      (Graph.predecessors g id)
  in
  if (not (At.uses_x at)) || fed_by_edge then 0
  else
    match
      Layout.plan ~vector_len:at.At.vector_len ~rows:at.At.loop_iterations ()
    with
    | Error _ -> 0
    | Ok plan ->
        if At.equal_digital_op at.At.digital_op At.Do_mean then
          (* streamed element-wise reduction (mean_product): a fresh X
             window per row *)
          at.At.vector_len * at.At.loop_iterations
        else
          (* broadcast X, reloaded once per row chunk *)
          at.At.vector_len * max plan.Layout.tasks 1

let x_bytes_per_decision g =
  List.fold_left
    (fun acc (id, at) -> acc + x_bytes_of_task g id at)
    0 (Graph.tasks g)

let decision_overhead g =
  let bytes = x_bytes_per_decision g in
  (transfer_cycles ~bytes, transfer_energy_pj ~bytes)
