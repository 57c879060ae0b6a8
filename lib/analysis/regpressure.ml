module Diag = Promise_core.Diag
module Ssa = Promise_ir.Ssa
module IntSet = Liveness.IntSet

let xreg_depth = Promise_arch.Params.xreg_depth

(* Vector-typed vregs: resolved from def instructions. Two passes so a
   loop-carried phi whose only same-index-order incoming is defined
   later (the back edge) still resolves. *)
let vector_vregs (f : Ssa.func) =
  let vecs = ref IntSet.empty in
  let param_is_vector name =
    match Ssa.param_ty f name with
    | Some (Ssa.Vector _) | Some (Ssa.Matrix _) -> true
    | _ -> false
  in
  let value_is_vector v =
    match v with
    | Ssa.Vreg r -> IntSet.mem r !vecs
    | Ssa.Arg a -> param_is_vector a
    | _ -> false
  in
  let instr_is_vector = function
    | Ssa.Getindex _ -> true (* a matrix row *)
    | Ssa.Vec_binop _ | Ssa.Vec_unop _ -> true
    | Ssa.Phi { incoming } -> List.exists (fun (_, v) -> value_is_vector v) incoming
    | _ -> false
  in
  let sweep () =
    List.iter
      (fun (b : Ssa.block) ->
        Array.iteri
          (fun k i ->
            if instr_is_vector i then
              vecs := IntSet.add (b.Ssa.first_index + k) !vecs)
          b.Ssa.instrs)
      f.Ssa.blocks
  in
  sweep ();
  sweep ();
  !vecs

let max_pressure (f : Ssa.func) =
  let vecs = vector_vregs f in
  let after = Liveness.live_after f in
  let peak = ref 0 in
  let count s = IntSet.cardinal (IntSet.inter s vecs) in
  List.iter
    (fun (b : Ssa.block) ->
      Array.iteri
        (fun k _ ->
          peak := max !peak (count (after (b.Ssa.first_index + k))))
        b.Ssa.instrs)
    f.Ssa.blocks;
  !peak

let check_function f =
  let p = max_pressure f in
  if p > xreg_depth then
    [
      Diag.errorf ~code:"P-REG-001"
        "%d vector values are live simultaneously but the X-REG file holds \
         %d: the kernel cannot be staged without spilling"
        p xreg_depth;
    ]
  else []

(* ---- Allocator cross-check ---- *)

type alloc = {
  index : int;
  level : int;
  first_bank : int;
  banks : int;
  start_cycle : int;
  finish_cycle : int;
}

let check_allocation allocs =
  let arr = Array.of_list allocs in
  let n = Array.length arr in
  let diags = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      let time_overlap =
        a.start_cycle < b.finish_cycle && b.start_cycle < a.finish_cycle
      in
      let bank_overlap =
        a.first_bank < b.first_bank + b.banks
        && b.first_bank < a.first_bank + a.banks
      in
      if time_overlap && bank_overlap then
        diags :=
          Diag.errorf ~code:"P-REG-002" ~span:(Diag.Task b.index)
            "allocator overlap: tasks %d and %d share banks [%d, %d] ∩ [%d, \
             %d] during cycles [%d, %d) ∩ [%d, %d)"
            a.index b.index a.first_bank
            (a.first_bank + a.banks - 1)
            b.first_bank
            (b.first_bank + b.banks - 1)
            a.start_cycle a.finish_cycle b.start_cycle b.finish_cycle
          :: !diags
    done
  done;
  List.rev !diags

module For_tests = struct
  let max_pressure = max_pressure
end
