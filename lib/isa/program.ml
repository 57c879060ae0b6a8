type t = { name : string; tasks : Task.t list }
[@@deriving eq]

let make ~name tasks =
  List.iteri
    (fun i task ->
      match Task.validate task with
      | Ok _ -> ()
      | Error d ->
          invalid_arg
            (Printf.sprintf "Program.make: task %d: %s" i
               (Promise_core.Diag.render d)))
    tasks;
  { name; tasks }

let length t = List.length t.tasks

let max_banks t =
  List.fold_left (fun acc task -> max acc (Task.banks task)) 1 t.tasks

let swings t =
  t.tasks
  |> List.map (fun task -> task.Task.op_param.Op_param.swing)
  |> List.sort_uniq compare

let with_swings t ss =
  if List.length ss <> List.length t.tasks then
    invalid_arg "Program.with_swings: length mismatch";
  let tasks =
    List.map2
      (fun task swing ->
        { task with Task.op_param = { task.Task.op_param with Op_param.swing } })
      t.tasks ss
  in
  make ~name:t.name tasks

let to_asm t = Asm.print_program t.tasks

let of_asm ~name src =
  Result.map (fun tasks -> { name; tasks }) (Asm.parse_program src)

let to_binary t = Encode.program_to_bytes t.tasks

let of_binary ~name b =
  Result.map (fun tasks -> { name; tasks }) (Encode.program_of_bytes b)

module For_tests = struct
  let equal = equal
  let swings = swings
  let with_swings = with_swings
  let of_binary = of_binary
end
