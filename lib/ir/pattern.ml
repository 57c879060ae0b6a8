open Ssa

type loop_info = {
  block : Ssa.label;
  iv_phi : int;
  start : int;
  iterations : int;
}

let in_block (b : block) = function
  | Vreg id -> id >= b.first_index && id < b.first_index + Array.length b.instrs
  | Arg _ | Const_int _ | Const_float _ -> false

let instr_in_block (b : block) id =
  let offset = id - b.first_index in
  if offset >= 0 && offset < Array.length b.instrs then Some b.instrs.(offset)
  else None

(* Recognize the IV update: phi +/- 1, tolerant of operand order for +. *)
let iv_step (b : block) ~phi_id next =
  match next with
  | Vreg id -> (
      match instr_in_block b id with
      | Some (Int_binop { op = Iadd; lhs = Vreg p; rhs = Const_int 1 })
      | Some (Int_binop { op = Iadd; lhs = Const_int 1; rhs = Vreg p })
        when p = phi_id ->
          Some 1
      | Some (Int_binop { op = Isub; lhs = Vreg p; rhs = Const_int 1 })
        when p = phi_id ->
          Some (-1)
      | _ -> None)
  | _ -> None

(* Trip count of a do-while self-loop from its exit comparison on the
   post-update IV (or the phi itself). *)
let trip_count ~start ~step ~continue_pred ~uses_next ~bound =
  match (step, continue_pred, uses_next) with
  | 1, Lt, true -> Some (bound - start)
  | 1, Le, true -> Some (bound - start + 1)
  | 1, Lt, false -> Some (bound - start + 1)
  | 1, Ne, true -> Some (bound - start)
  | -1, Gt, true -> Some (start - bound)
  | -1, Ge, true -> Some (start - bound + 1)
  | -1, Ne, true -> Some (start - bound)
  | _ -> None

let canonical_loop _f (b : block) =
  match b.terminator with
  | Cond_br { cond = Vreg cond_id; if_true; if_false } -> (
      let continue_to_self, negated =
        if String.equal if_true b.label then (true, false)
        else if String.equal if_false b.label then (true, true)
        else (false, false)
      in
      if not continue_to_self then None
      else
        (* One induction phi: incoming from a non-self block (init) and
           from self (the update). *)
        let find_iv () =
          Array.to_seq b.instrs
          |> Seq.mapi (fun i instr -> (b.first_index + i, instr))
          |> Seq.find_map (fun (id, instr) ->
                 match instr with
                 | Phi { incoming = [ (l1, v1); (l2, v2) ] } ->
                     let init, next =
                       if String.equal l1 b.label then (v2, v1)
                       else if String.equal l2 b.label then (v1, v2)
                       else (Const_int 0, Const_int 0)
                     in
                     (match (init, iv_step b ~phi_id:id next) with
                     | Const_int start, Some step -> Some (id, start, step, next)
                     | _ -> None)
                 | _ -> None)
        in
        match find_iv () with
        | None -> None
        | Some (iv_phi, start, step, next) -> (
            match instr_in_block b cond_id with
            | Some (Icmp { pred; lhs; rhs }) -> (
                let pred = if negated then
                    match pred with
                    | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt | Eq -> Ne
                    | Ne -> Eq
                  else pred
                in
                let classify v =
                  if equal_value v next then Some true
                  else if equal_value v (Vreg iv_phi) then Some false
                  else None
                in
                let resolved =
                  match (classify lhs, rhs) with
                  | Some uses_next, Const_int bound ->
                      Some (pred, uses_next, bound)
                  | _ -> (
                      match (lhs, classify rhs) with
                      | Const_int bound, Some uses_next ->
                          (* bound on the left: mirror the predicate *)
                          let mirrored =
                            match pred with
                            | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
                            | Eq -> Eq | Ne -> Ne
                          in
                          Some (mirrored, uses_next, bound)
                      | _ -> None)
                in
                match resolved with
                | None -> None
                | Some (continue_pred, uses_next, bound) -> (
                    match
                      trip_count ~start ~step ~continue_pred ~uses_next ~bound
                    with
                    | Some n when n >= 1 ->
                        let start = if step = 1 then start else bound in
                        Some { block = b.label; iv_phi; start; iterations = n }
                    | _ -> None))
            | _ -> None))
  | Br _ | Ret _ | Cond_br _ -> None

let find_loops f = List.filter_map (canonical_loop f) f.blocks

let ( let* ) = Result.bind

let arg_name ctx = function
  | Arg name -> Ok name
  | v ->
      Error
        (Format.asprintf "%s: expected a function argument, got %a" ctx
           pp_value v)

(* The IV value as the loop body sees it (the phi). *)
let is_iv info v = equal_value v (Vreg info.iv_phi)

let vector_len_of f ~w ~x =
  match (Option.bind x (param_ty f), param_ty f w) with
  | Some (Vector n), _ -> Ok n
  | _, Some (Matrix (_, cols)) -> Ok cols
  | _ ->
      Error
        (Printf.sprintf "cannot determine vector length of W=%S" w)

let check_rows f ~w ~iterations =
  match param_ty f w with
  | Some (Matrix (rows, _)) ->
      if iterations > rows then
        Error
          (Printf.sprintf "loop runs %d iterations but %S has %d rows"
             iterations w rows)
      else Ok ()
  | _ -> Error (Printf.sprintf "W operand %S is not a matrix" w)

let match_loop f info =
  let* b =
    match find_block f info.block with
    | Some b -> Ok b
    | None -> Error ("no such block " ^ info.block)
  in
  let def v =
    match v with
    | Vreg id when in_block b v -> instr_in_block b id
    | _ -> None
  in
  (* 1. the unique store *)
  let stores =
    Array.to_list b.instrs
    |> List.filter_map (function Store { src; ptr } -> Some (src, ptr) | _ -> None)
  in
  let* src, ptr =
    match stores with
    | [ sp ] -> Ok sp
    | [] -> Error "loop body has no store"
    | _ -> Error "loop body has multiple stores"
  in
  (* 2. ptr = getelementptr (Arg out, iv) *)
  let* output =
    match def ptr with
    | Some (Getelementptr { base; index }) when is_iv info index ->
        arg_name "store address base" base
    | Some (Getelementptr _) ->
        Error "store address is not indexed by the induction variable"
    | _ -> Error "store address is not a getelementptr"
  in
  (* 3. optional scalar unary op *)
  let* digital_op, threshold, reduce_v =
    match def src with
    | Some (Scalar_unop { op = Usigmoid; operand }) ->
        Ok (Abstract_task.Do_sigmoid, 0.0, operand)
    | Some (Scalar_unop { op = Urelu; operand }) ->
        Ok (Abstract_task.Do_relu, 0.0, operand)
    | Some (Scalar_unop { op = Uthreshold value; operand }) ->
        Ok (Abstract_task.Do_threshold, value, operand)
    | Some (Scalar_unop { op = (Uneg | Uabs) as op; _ }) ->
        Error
          (Format.asprintf "unsupported decision function %a" pp_scalar_unop op)
    | _ -> Ok (Abstract_task.Do_none, 0.0, src)
  in
  (* 4. the reduction library call *)
  let* vec_v =
    match def reduce_v with
    | Some (Reduce { op = Rsum; operand }) -> Ok operand
    | _ -> Error "stored value is not a reduction of a vector"
  in
  (* 5. the element-wise vector operation over (W row, loop-invariant X) *)
  let match_w_row v =
    match def v with
    | Some (Getindex { matrix; index }) when is_iv info index ->
        Some (arg_name "W matrix" matrix)
    | _ -> None
  in
  let split_operands lhs rhs =
    match (match_w_row lhs, match_w_row rhs) with
    | Some w, None when not (in_block b rhs) -> Ok (w, Some rhs)
    | None, Some w when not (in_block b lhs) -> Ok (w, Some lhs)
    | Some _, Some _ -> Error "both vector operands are rows of W"
    | _ ->
        Error
          "vector operation is not between a W row and a loop-invariant X"
  in
  let* vec_op, red_op, w_res, x_value =
    match def vec_v with
    | Some (Vec_unop { op = unop; operand }) -> (
        let* red_op =
          match unop with
          | Vabs -> Ok Abstract_task.Ro_sum_abs
          | Vsquare -> Ok Abstract_task.Ro_sum_square
          | Vcompare -> Ok Abstract_task.Ro_sum_compare
        in
        match def operand with
        | Some (Vec_binop { op = Vsub; lhs; rhs }) ->
            let* w, x = split_operands lhs rhs in
            Ok (Abstract_task.Vo_sub, red_op, w, x)
        | Some (Getindex { matrix; index }) when is_iv info index ->
            Ok
              ( Abstract_task.Vo_none,
                red_op,
                arg_name "W matrix" matrix,
                None )
        | _ -> Error "unary vector op does not wrap a subtraction or a W row")
    | Some (Vec_binop { op; lhs; rhs }) ->
        let* w, x = split_operands lhs rhs in
        let vec_op =
          match op with
          | Vmul -> Abstract_task.Vo_mul_signed
          | Vsub -> Abstract_task.Vo_sub
          | Vadd -> Abstract_task.Vo_add
        in
        Ok (vec_op, Abstract_task.Ro_sum, w, x)
    | Some (Getindex { matrix; index }) when is_iv info index ->
        Ok (Abstract_task.Vo_none, Abstract_task.Ro_sum,
            arg_name "W matrix" matrix, None)
    | _ -> Error "reduced value is not an element-wise vector operation"
  in
  let* w = w_res in
  let* x =
    match x_value with
    | None -> Ok ""
    | Some v -> arg_name "X operand" v
  in
  let* vector_len = vector_len_of f ~w ~x:(if x = "" then None else Some x) in
  let* () = check_rows f ~w ~iterations:info.iterations in
  Ok
    (Abstract_task.make
       ~name:(f.name ^ ":" ^ info.block)
       ~threshold ~w ~x ~output ~vec_op ~red_op ~digital_op ~vector_len
       ~loop_iterations:info.iterations ())

(* Whole-array reduction library calls (Linear Regression, Table 2). *)
let match_reduction_call f fn args =
  let task ~w ~x ~vec_op ~red_op ~digital_op =
    let* rows, cols =
      match param_ty f w with
      | Some (Matrix (r, c)) -> Ok (r, c)
      | _ -> Error (Printf.sprintf "%s: %S is not a matrix" fn w)
    in
    Ok
      (Abstract_task.make
         ~name:(f.name ^ ":" ^ fn ^ "(" ^ w ^ ")")
         ~w ~x
         ~output:("%" ^ fn ^ "_" ^ w)
         ~vec_op ~red_op ~digital_op ~vector_len:cols ~loop_iterations:rows ())
  in
  match (fn, args) with
  | "mean", [ Arg w ] ->
      Some
        (task ~w ~x:"" ~vec_op:Abstract_task.Vo_none
           ~red_op:Abstract_task.Ro_sum ~digital_op:Abstract_task.Do_mean)
  | "mean_square", [ Arg w ] ->
      Some
        (task ~w ~x:"" ~vec_op:Abstract_task.Vo_none
           ~red_op:Abstract_task.Ro_sum_square ~digital_op:Abstract_task.Do_mean)
  | "mean_product", [ Arg w; Arg x ] ->
      Some
        (task ~w ~x ~vec_op:Abstract_task.Vo_mul_signed
           ~red_op:Abstract_task.Ro_sum ~digital_op:Abstract_task.Do_mean)
  | _ -> None

(* Post-loop decision calls to fuse into a producer's Class-4 op. *)
let decision_fusion fn =
  match fn with
  | "argmin" | "min" -> Some Abstract_task.Do_min
  | "argmax" | "max" -> Some Abstract_task.Do_max
  | _ -> None

let match_function f =
  let loop_blocks = find_loops f in
  (* Tasks from loops, in block order. *)
  let* loop_tasks =
    List.fold_left
      (fun acc info ->
        let* tasks = acc in
        let* task = match_loop f info in
        Ok (task :: tasks))
      (Ok []) loop_blocks
  in
  let loop_tasks = List.rev loop_tasks in
  (* Tasks from whole-array reduction calls, and decision fusions. *)
  let calls =
    List.concat_map
      (fun b ->
        Array.to_list b.instrs
        |> List.filter_map (function
             | Call { fn; args } -> Some (fn, args)
             | _ -> None))
      f.blocks
  in
  let* call_tasks =
    List.fold_left
      (fun acc (fn, args) ->
        let* tasks = acc in
        match match_reduction_call f fn args with
        | Some result ->
            let* task = result in
            Ok (task :: tasks)
        | None -> (
            match decision_fusion fn with
            | Some _ -> Ok tasks (* handled below *)
            | None ->
                Error (Printf.sprintf "unsupported library call %S" fn)))
      (Ok []) calls
  in
  let tasks = loop_tasks @ List.rev call_tasks in
  (* Fuse argmin/argmax(out) into the task producing out. *)
  let fused =
    List.fold_left
      (fun tasks (fn, args) ->
        match (decision_fusion fn, args) with
        | Some digital_op, [ Arg out ] ->
            List.map
              (fun (t : Abstract_task.t) ->
                if
                  String.equal t.Abstract_task.output out
                  && Abstract_task.equal_digital_op t.Abstract_task.digital_op
                       Abstract_task.Do_none
                then { t with Abstract_task.digital_op }
                else t)
              tasks
        | _ -> tasks)
      tasks calls
  in
  if fused = [] then Error "no offloadable computation found"
  else Graph.of_tasks fused

module For_tests = struct
  let find_loops = find_loops
end
