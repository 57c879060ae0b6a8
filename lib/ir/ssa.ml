type ty =
  | Scalar_int
  | Scalar_float
  | Vector of int
  | Matrix of int * int
  | Ptr
[@@deriving eq, show { with_path = false }]

type value = Vreg of int | Const_int of int | Const_float of float | Arg of string
[@@deriving eq, show { with_path = false }]

type vec_binop = Vadd | Vsub | Vmul

type vec_unop = Vabs | Vsquare | Vcompare

type reduce_op = Rsum

type scalar_unop = Usigmoid | Urelu | Uneg | Uabs | Uthreshold of float
[@@deriving show { with_path = false }]

type int_binop = Iadd | Isub | Imul

type icmp_pred = Lt | Le | Gt | Ge | Eq | Ne

type label = string

type instr =
  | Getindex of { matrix : value; index : value }
  | Vec_binop of { op : vec_binop; lhs : value; rhs : value }
  | Vec_unop of { op : vec_unop; operand : value }
  | Reduce of { op : reduce_op; operand : value }
  | Scalar_unop of { op : scalar_unop; operand : value }
  | Int_binop of { op : int_binop; lhs : value; rhs : value }
  | Icmp of { pred : icmp_pred; lhs : value; rhs : value }
  | Getelementptr of { base : value; index : value }
  | Store of { src : value; ptr : value }
  | Load of { ptr : value }
  | Phi of { incoming : (label * value) list }
  | Call of { fn : string; args : value list }

type terminator =
  | Br of label
  | Cond_br of { cond : value; if_true : label; if_false : label }
  | Ret of value option

type block = {
  label : label;
  first_index : int;
  instrs : instr array;
  terminator : terminator;
}

type func = { name : string; params : (string * ty) list; blocks : block list }

let param_ty f name =
  List.find_opt (fun (n, _) -> String.equal n name) f.params
  |> Option.map snd

let find_block f label =
  List.find_opt (fun b -> String.equal b.label label) f.blocks

let def_of f vreg =
  List.find_map
    (fun b ->
      let offset = vreg - b.first_index in
      if offset >= 0 && offset < Array.length b.instrs then
        Some (b, b.instrs.(offset))
      else None)
    f.blocks

let instr_operands = function
  | Getindex { matrix; index } -> [ matrix; index ]
  | Vec_binop { lhs; rhs; _ } -> [ lhs; rhs ]
  | Vec_unop { operand; _ } -> [ operand ]
  | Reduce { operand; _ } -> [ operand ]
  | Scalar_unop { operand; _ } -> [ operand ]
  | Int_binop { lhs; rhs; _ } -> [ lhs; rhs ]
  | Icmp { lhs; rhs; _ } -> [ lhs; rhs ]
  | Getelementptr { base; index } -> [ base; index ]
  | Store { src; ptr } -> [ src; ptr ]
  | Load { ptr } -> [ ptr ]
  | Phi { incoming } -> List.map snd incoming
  | Call { args; _ } -> args

let ( let* ) = Result.bind

let verify f =
  let defined = Hashtbl.create 64 in
  let labels = Hashtbl.create 8 in
  let* () =
    List.fold_left
      (fun acc b ->
        let* () = acc in
        if Hashtbl.mem labels b.label then
          Error (Printf.sprintf "duplicate block label %S" b.label)
        else begin
          Hashtbl.add labels b.label ();
          Array.iteri
            (fun i _ ->
              let id = b.first_index + i in
              Hashtbl.replace defined id ())
            b.instrs;
          Ok ()
        end)
      (Ok ()) f.blocks
  in
  let check_value ctx = function
    | Vreg id when not (Hashtbl.mem defined id) ->
        Error (Printf.sprintf "%s: use of undefined register %%%d" ctx id)
    | Arg name when param_ty f name = None ->
        Error (Printf.sprintf "%s: unknown argument %S" ctx name)
    | Vreg _ | Arg _ | Const_int _ | Const_float _ -> Ok ()
  in
  let check_label ctx l =
    if Hashtbl.mem labels l then Ok ()
    else Error (Printf.sprintf "%s: unknown block label %S" ctx l)
  in
  List.fold_left
    (fun acc b ->
      let* () = acc in
      let ctx = Printf.sprintf "block %S" b.label in
      let* () =
        Array.fold_left
          (fun acc instr ->
            let* () = acc in
            let* () =
              List.fold_left
                (fun acc v ->
                  let* () = acc in
                  check_value ctx v)
                (Ok ())
                (instr_operands instr)
            in
            match instr with
            | Phi { incoming } ->
                List.fold_left
                  (fun acc (l, _) ->
                    let* () = acc in
                    check_label ctx l)
                  (Ok ()) incoming
            | _ -> Ok ())
          (Ok ()) b.instrs
      in
      match b.terminator with
      | Br l -> check_label ctx l
      | Cond_br { cond; if_true; if_false } ->
          let* () = check_value ctx cond in
          let* () = check_label ctx if_true in
          check_label ctx if_false
      | Ret (Some v) -> check_value ctx v
      | Ret None -> Ok ())
    (Ok ()) f.blocks

module Builder = struct
  type pending = {
    label : label;
    first_index : int;
    mutable rev_instrs : instr list;
    mutable terminator : terminator option;
  }

  type t = {
    name : string;
    params : (string * ty) list;
    mutable counter : int;
    mutable rev_blocks : pending list;
    mutable current : pending option;
  }

  let create ~name ~params =
    { name; params; counter = 0; rev_blocks = []; current = None }

  let flush t =
    match t.current with
    | None -> ()
    | Some p ->
        if p.terminator = None then
          (* Same diagnostic code as Promise_analysis.Ssa_check so the
             eager builder rejection and the whole-function validator
             speak one vocabulary. *)
          invalid_arg
            (Printf.sprintf "Ssa.Builder: [P-SSA-005] block %S has no terminator"
               p.label);
        t.rev_blocks <- p :: t.rev_blocks;
        t.current <- None

  let block t label =
    flush t;
    if
      List.exists (fun p -> String.equal p.label label) t.rev_blocks
    then invalid_arg (Printf.sprintf "Ssa.Builder: duplicate block %S" label);
    t.current <-
      Some { label; first_index = t.counter; rev_instrs = []; terminator = None }

  let instr t i =
    match t.current with
    | None -> invalid_arg "Ssa.Builder.instr: no open block"
    | Some p ->
        let id = t.counter in
        t.counter <- id + 1;
        p.rev_instrs <- i :: p.rev_instrs;
        Vreg id

  let terminate t term =
    match t.current with
    | None -> invalid_arg "Ssa.Builder.terminate: no open block"
    | Some p ->
        if p.terminator <> None then
          invalid_arg "Ssa.Builder.terminate: block already terminated";
        p.terminator <- Some term

  let finish t =
    flush t;
    let blocks =
      List.rev_map
        (fun p ->
          {
            label = p.label;
            first_index = p.first_index;
            instrs = Array.of_list (List.rev p.rev_instrs);
            terminator = Option.get p.terminator;
          })
        t.rev_blocks
    in
    let f = { name = t.name; params = t.params; blocks } in
    (match verify f with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Ssa.Builder.finish: " ^ msg));
    f
end

module For_tests = struct
  module Builder = Builder

  let def_of = def_of
end
