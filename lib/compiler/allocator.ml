open Promise_isa
module Timing = Promise_arch.Timing

type assignment = {
  task : Task.t;
  level : int;
  first_bank : int;
  start_cycle : int;
  finish_cycle : int;
}

type plan = {
  assignments : assignment list;
  banks_used : int;
  makespan : int;
  pipelined_interval : int;
}

let ( let* ) = Result.bind

(* Pack one level's independent tasks into waves of bank groups. Tasks
   are placed greedily at the lowest free bank; when the machine is
   full, a new wave starts after the slowest task of the current one. *)
let pack_level ?(excluded = []) ~total_banks ~level ~level_start tasks =
  (* Lowest placement at or above [from] whose bank range avoids the
     excluded (faulted) banks. *)
  let find_slot from banks =
    let usable first =
      not (List.exists (fun b -> b >= first && b < first + banks) excluded)
    in
    let rec go first =
      if first + banks > total_banks then None
      else if usable first then Some first
      else go (first + 1)
    in
    go from
  in
  let* () =
    match
      List.find_opt (fun t -> find_slot 0 (Task.banks t) = None) tasks
    with
    | Some t ->
        Error
          (Printf.sprintf
             "task needs %d contiguous healthy banks but the machine has %d \
              total (%d excluded)"
             (Task.banks t) total_banks (List.length excluded))
    | None -> Ok ()
  in
  let assignments = ref [] in
  let wave_start = ref level_start in
  let next_bank = ref 0 in
  let wave_finish = ref level_start in
  let peak = ref 0 in
  List.iter
    (fun task ->
      let banks = Task.banks task in
      let first =
        match find_slot !next_bank banks with
        | Some f -> f
        | None ->
            (* close the wave *)
            wave_start := !wave_finish;
            next_bank := 0;
            Option.get (find_slot 0 banks)
      in
      let start_cycle = !wave_start in
      let finish_cycle = start_cycle + Timing.task_steady_cycles task in
      assignments :=
        { task; level; first_bank = first; start_cycle; finish_cycle }
        :: !assignments;
      next_bank := first + banks;
      peak := max !peak !next_bank;
      wave_finish := max !wave_finish finish_cycle)
    tasks;
  Ok (List.rev !assignments, !wave_finish, !peak)

let plan ?excluded ~total_banks tasks =
  if total_banks < 1 then Error "total_banks must be >= 1"
  else begin
    let levels =
      List.sort_uniq compare (List.map snd tasks)
    in
    let* assignments, makespan, peak =
      List.fold_left
        (fun acc level ->
          let* assignments, t, peak = acc in
          let level_tasks =
            List.filter_map
              (fun (task, l) -> if l = level then Some task else None)
              tasks
          in
          let* placed, finish, level_peak =
            pack_level ?excluded ~total_banks ~level ~level_start:t level_tasks
          in
          Ok (assignments @ placed, finish, max peak level_peak))
        (Ok ([], 0, 0))
        levels
    in
    (* sustained interval = the slowest level's span (first start to
       last finish within the level) *)
    let level_span level =
      let of_level = List.filter (fun a -> a.level = level) assignments in
      match of_level with
      | [] -> 0
      | _ ->
          let first =
            List.fold_left (fun m a -> min m a.start_cycle) max_int of_level
          in
          let last =
            List.fold_left (fun m a -> max m a.finish_cycle) 0 of_level
          in
          last - first
    in
    let pipelined_interval =
      List.fold_left (fun acc level -> max acc (level_span level)) 1 levels
    in
    let plan = { assignments; banks_used = peak; makespan; pipelined_interval } in
    (* Fail closed: re-verify the placement from first principles with
       the analysis-side interference check — two cycle-overlapping
       assignments sharing a bank would silently corrupt both weight
       sets, so a packing bug must surface as a lint error here, not
       as wrong numbers downstream. *)
    let* () =
      match
        Promise_analysis.Regpressure.check_allocation
          (List.mapi
             (fun index a ->
               {
                 Promise_analysis.Regpressure.index;
                 level = a.level;
                 first_bank = a.first_bank;
                 banks = Task.banks a.task;
                 start_cycle = a.start_cycle;
                 finish_cycle = a.finish_cycle;
               })
             plan.assignments)
      with
      | [] -> Ok ()
      | d :: _ -> Error (Promise_core.Diag.render d)
    in
    Ok plan
  end

let of_program ?excluded ~total_banks ~levels (program : Program.t) =
  let* tagged =
    let rec tag level remaining tasks acc =
      match (remaining, tasks) with
      | [], [] -> Ok (List.rev acc)
      | [], _ -> Error "levels cover fewer tasks than the program has"
      | 0 :: rest, tasks -> tag (level + 1) rest tasks acc
      | _ :: _, [] -> Error "levels cover more tasks than the program has"
      | n :: rest, task :: tasks ->
          tag level ((n - 1) :: rest) tasks ((task, level) :: acc)
    in
    tag 0 levels program.Program.tasks []
  in
  plan ?excluded ~total_banks tagged

module For_tests = struct
  let plan = plan
end
