type plan = {
  vector_len : int;
  rows : int;
  banks : int;
  multi_bank : int;
  segments : int;
  lanes_per_bank : int;
  rows_per_task : int;
  tasks : int;
}

let ceil_div a b = (a + b - 1) / b

let plan ?(max_lanes = Params.lanes) ~vector_len ~rows () =
  if vector_len < 1 then Error "vector_len must be >= 1"
  else if rows < 1 then Error "rows must be >= 1"
  else if max_lanes < 1 || max_lanes > Params.lanes then
    Error
      (Printf.sprintf "max_lanes must be in 1..%d (got %d)" Params.lanes
         max_lanes)
  else
    let max_banks_per_task = 8 and max_segments = 4 in
    if vector_len > max_banks_per_task * max_segments * max_lanes then
      Error
        (Printf.sprintf
           "vector of %d elements exceeds 8 banks x 4 segments x %d lanes"
           vector_len max_lanes)
    else
      (* Prefer parallelism (more banks) over serialization (segments). *)
      let rec pick_banks multi_bank =
        let banks = 1 lsl multi_bank in
        if vector_len <= banks * max_lanes || multi_bank = 3 then
          (banks, multi_bank)
        else pick_banks (multi_bank + 1)
      in
      let banks, multi_bank = pick_banks 0 in
      let segments = ceil_div vector_len (banks * max_lanes) in
      let lanes_per_bank = ceil_div vector_len (banks * segments) in
      let max_rows_per_task =
        min (Params.word_rows / segments) (128 / segments)
      in
      let rows_per_task = min rows max_rows_per_task in
      let tasks = ceil_div rows rows_per_task in
      Ok
        {
          vector_len;
          rows;
          banks;
          multi_bank;
          segments;
          lanes_per_bank;
          rows_per_task;
          tasks;
        }

let plan_exn ?max_lanes ~vector_len ~rows () =
  match plan ?max_lanes ~vector_len ~rows () with
  | Ok p -> p
  | Error msg -> invalid_arg ("Layout.plan: " ^ msg)

let spare_map ~faulty =
  let bad = Array.make Params.lanes false in
  List.iter
    (fun l -> if l >= 0 && l < Params.lanes then bad.(l) <- true)
    faulty;
  let healthy = ref [] in
  for l = Params.lanes - 1 downto 0 do
    if not bad.(l) then healthy := l :: !healthy
  done;
  Array.of_list !healthy

let lane_mask_of_map map ~used =
  if used < 0 || used > Array.length map then
    invalid_arg "Layout.lane_mask_of_map: used exceeds map length";
  let mask = Array.make Params.lanes false in
  for i = 0 to used - 1 do
    mask.(map.(i)) <- true
  done;
  mask

let x_prd p = p.segments - 1
let chunk_rows p k =
  if k < 0 || k >= p.tasks then invalid_arg "Layout.chunk_rows: bad chunk";
  if k = p.tasks - 1 then p.rows - (k * p.rows_per_task) else p.rows_per_task

let slice_of_vector p v ~bank ~segment =
  if bank < 0 || bank >= p.banks then invalid_arg "Layout.slice: bad bank";
  if segment < 0 || segment >= p.segments then
    invalid_arg "Layout.slice: bad segment";
  let out = Array.make p.lanes_per_bank 0 in
  let base = ((bank * p.segments) + segment) * p.lanes_per_bank in
  let len = Array.length v in
  for lane = 0 to p.lanes_per_bank - 1 do
    let e = base + lane in
    if e < len then out.(lane) <- v.(e)
  done;
  out
