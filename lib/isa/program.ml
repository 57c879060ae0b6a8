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

let to_asm t = Asm.print_program t.tasks

let of_asm ~name src =
  Result.map (fun tasks -> { name; tasks }) (Asm.parse_program src)

let to_binary t = Encode.program_to_bytes t.tasks

let of_binary ~name b =
  Result.map (fun tasks -> { name; tasks }) (Encode.program_of_bytes b)

module For_tests = struct
  let equal = equal
  let of_binary = of_binary
end
