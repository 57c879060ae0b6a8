module Diag = Promise_core.Diag
module Ssa = Promise_ir.Ssa
open Promise_isa

module IntSet = Set.Make (Int)

module SetLattice = struct
  type t = IntSet.t

  let bottom = IntSet.empty
  let equal = IntSet.equal
  let join = IntSet.union
end

module Solver = Dataflow.Make (SetLattice)

let vregs_of values =
  List.filter_map (function Ssa.Vreg v -> Some v | _ -> None) values

let terminator_uses = function
  | Ssa.Br _ -> []
  | Ssa.Cond_br { cond; _ } -> vregs_of [ cond ]
  | Ssa.Ret v -> vregs_of (Option.to_list v)

(* Non-phi operand uses of an instruction: phi incoming values are
   edge uses charged to the predecessor, not to the phi's own block. *)
let instr_uses = function
  | Ssa.Phi _ -> []
  | i -> vregs_of (Ssa.instr_operands i)

type ssa_liveness = {
  live_in : IntSet.t array;
  live_out : IntSet.t array;
}

(* Per block: [defs], upward-exposed [uses] (a use before any same-
   block def — with SSA's global instruction numbering, operand id <
   first_index + position suffices... not quite: the operand may be
   defined in an earlier block, so "not defined earlier in this
   block" is the test), and the per-successor-edge phi uses. *)
let block_summary (blocks : Ssa.block array) =
  let n = Array.length blocks in
  let defs = Array.make n IntSet.empty in
  let ue_uses = Array.make n IntSet.empty in
  Array.iteri
    (fun bi (b : Ssa.block) ->
      let defined = ref IntSet.empty in
      Array.iteri
        (fun k i ->
          List.iter
            (fun v ->
              if not (IntSet.mem v !defined) then
                ue_uses.(bi) <- IntSet.add v ue_uses.(bi))
            (instr_uses i);
          defined := IntSet.add (b.Ssa.first_index + k) !defined)
        b.Ssa.instrs;
      List.iter
        (fun v ->
          if not (IntSet.mem v !defined) then
            ue_uses.(bi) <- IntSet.add v ue_uses.(bi))
        (terminator_uses b.Ssa.terminator);
      defs.(bi) <- !defined)
    blocks;
  (defs, ue_uses)

(* phi_edge_uses.(p) — vregs consumed at the end of block [p] by phis
   in its successors. *)
let phi_edge_uses (blocks : Ssa.block array) =
  let n = Array.length blocks in
  let out = Array.make n IntSet.empty in
  let index = Hashtbl.create n in
  Array.iteri (fun i (b : Ssa.block) -> Hashtbl.replace index b.Ssa.label i) blocks;
  Array.iter
    (fun (b : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Phi { incoming } ->
              List.iter
                (fun (label, v) ->
                  match (Hashtbl.find_opt index label, v) with
                  | Some p, Ssa.Vreg r -> out.(p) <- IntSet.add r out.(p)
                  | _ -> ())
                incoming
          | _ -> ())
        b.Ssa.instrs)
    blocks;
  out

let ssa_liveness (f : Ssa.func) =
  let graph, blocks = Dataflow.of_ssa f in
  let defs, ue_uses = block_summary blocks in
  let phi_uses = phi_edge_uses blocks in
  let solved =
    Solver.solve ~direction:Dataflow.Backward ~graph
      ~transfer:(fun bi out ->
        (* the phi edge use happens at the very end of this block,
           after its defs: it flows into live-in only if the value is
           defined elsewhere *)
        IntSet.union ue_uses.(bi)
          (IntSet.diff (IntSet.union out phi_uses.(bi)) defs.(bi)))
      ()
  in
  (* live_out as stored by the solver is the raw join of successor
     live-ins; add the phi edge uses so callers see the true
     end-of-block set. *)
  let live_out =
    Array.mapi (fun bi s -> IntSet.union s phi_uses.(bi)) solved.Solver.exit
  in
  { live_in = solved.Solver.entry; live_out }

let live_after (f : Ssa.func) =
  let _, blocks = Dataflow.of_ssa f in
  let { live_out; _ } = ssa_liveness f in
  let after : (int, IntSet.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun bi (b : Ssa.block) ->
      (* walk the block backward from its live-out *)
      let live = ref (IntSet.union live_out.(bi)
                        (IntSet.of_list (terminator_uses b.Ssa.terminator))) in
      for k = Array.length b.Ssa.instrs - 1 downto 0 do
        let id = b.Ssa.first_index + k in
        Hashtbl.replace after id !live;
        live := IntSet.remove id !live;
        live := IntSet.union !live (IntSet.of_list (instr_uses b.Ssa.instrs.(k)))
      done)
    blocks;
  fun id -> Option.value ~default:IntSet.empty (Hashtbl.find_opt after id)

(* [Store] writes memory and [Call] is an opaque library call; every
   other instruction only produces its vreg. *)
let is_pure = function Ssa.Store _ | Ssa.Call _ -> false | _ -> true

let check (f : Ssa.func) =
  let after = live_after f in
  let diags = ref [] in
  List.iter
    (fun (b : Ssa.block) ->
      Array.iteri
        (fun k i ->
          let id = b.Ssa.first_index + k in
          if is_pure i && not (IntSet.mem id (after id)) then
            diags :=
              Diag.warningf ~code:"P-DCE-001"
                ~span:(Diag.Instr { block = b.Ssa.label; vreg = id })
                "pure instruction %%%d is never used: dead code" id
              :: !diags)
        b.Ssa.instrs)
    f.Ssa.blocks;
  List.rev !diags

(* ---- Task-level X-REG lifetimes ---- *)

let reads_x (t : Task.t) =
  Opcode.class1_reads_x t.Task.class1
  || Opcode.asd_reads_x t.Task.class2.Opcode.asd

let writes_xreg (t : Task.t) =
  Opcode.equal_destination t.Task.op_param.Op_param.des Opcode.Des_xreg
  && Task.uses_adc t

module BoolLattice = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end

module BoolSolver = Dataflow.Make (BoolLattice)

let check_program tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    (* Backward fact: "the X-REG staging slot is read downstream
       before the next store overwrites it". Within one Task the X
       reads happen before its own store commits, so a Task that both
       reads and writes still observes its predecessor's value. *)
    let solved =
      BoolSolver.solve ~direction:Dataflow.Backward
        ~graph:(Dataflow.of_sequence n)
        ~transfer:(fun i after ->
          let t = arr.(i) in
          if reads_x t then true
          else if writes_xreg t then false
          else after)
        ()
    in
    let diags = ref [] in
    Array.iteri
      (fun i t ->
        if writes_xreg t && not solved.BoolSolver.exit.(i) then begin
          (* P-ISA-001 owns the "no later reader at all" case *)
          let any_later_reader = ref false in
          for j = i + 1 to n - 1 do
            if reads_x arr.(j) then any_later_reader := true
          done;
          if !any_later_reader then
            diags :=
              Diag.errorf ~code:"P-DCE-002" ~span:(Diag.Task i)
                "X-REG store is overwritten by a later store before any Task \
                 reads an X operand (shadowed write)"
              :: !diags
        end)
      arr;
    List.rev !diags
  end

module For_tests = struct
  let ssa_liveness = ssa_liveness
end
