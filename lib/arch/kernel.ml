(* Compiled per-task kernels for the analog datapath: the one fused
   sampler.

   [specialize] hoists everything [Bank.run_iteration] recomputes per
   iteration — effective swing and its noise factor, LUT selection, the
   idle-leakage exponential, stuck/dead lane overrides, charge-share
   membership, the ADC offset, X addressing — into an immutable record,
   with the aREAD transfer curve and noise sigma pre-sampled per 8-bit
   code (the aREAD input is always [code / 128], so a 256-entry table is
   exact, not an approximation). [sample_batch_into] then runs
   aREAD → class-1 combine → leakage → aSD → charge share → ADC for a
   whole batch of decisions; a single decision is batch 1.

   BIT-IDENTITY CONTRACT: every float operation below reproduces the
   scalar path's arithmetic in the scalar path's order, and the bank's
   noise stream is consumed in (decision, iteration, lane) order exactly
   as [Bitcell_array.aread] consumes it. The QCheck differential suites
   (test_kernels, test_batch) hold fused ≡ Reference over random tasks,
   profiles, faults, destinations and lane masks; any edit here or in
   Bank/Bitcell_array/Faults must keep them green. *)

open Promise_isa
module A = Promise_analog

type c1_kind = K_aread | K_asubt | K_aadd

type asd_kind =
  | S_none
  | S_compare
  | S_absolute
  | S_square
  | S_sign_mult
  | S_unsign_mult

type t = {
  (* the launch shape, kept for cache validation ([matches]) *)
  bank : Bank.t;
  task : Task.t;
  active_lanes : int;
  lane_mask : bool array option;
  faults : Faults.t;
  (* the specialization *)
  array : Bitcell_array.t;
  xreg : Xreg.t;
  c1 : c1_kind;
  asd : asd_kind;
  uses_x : bool;
  iters : int;
  (* per-code pre-samples: index [code + 128] *)
  shaped : float array;  (* aREAD LUT of code/128 *)
  sigma : float array;  (* |shaped| × noise factor at effective swing *)
  noise_rng : A.Rng.t option;
  asd_tbl : float array;  (* ASD transfer-curve entries; [||] when none *)
  has_leak : bool;
  leak : float;  (* idle-slot droop factor, paid once per task *)
  override_any : bool;
  override_on : bool array;  (* stuck/dead lane replacement, post-noise *)
  override_val : float array;
  acc_on : bool array;  (* charge-share membership per physical lane *)
  acc_empty : bool;
  divisor : float;
  w_addr : int;
  x_base : int;
  x_period : int;
  adc_offset : float;
}

(* Max floats in the noise tile (128 KiB): big enough to amortize the
   fill-call overhead, small enough to stay cache-resident. A Task runs
   at most 128 iterations of 128 lanes, so one decision always fits. *)
let tile_floats = 16384

(* The sampler's working set, one per domain: one iteration's per-lane
   invariants — [wrow] the aREAD value, [srow] its noise sigma, [xrow]
   the normalized X operand, all the same for every decision of a batch
   — the noise tile one [Rng.gaussian_fill_ba] call fills, and the lane
   vector and charge-share slot of the per-sample loop. Kernels hold no
   scratch, so a machine's kernel slots stay small, and pool domains
   sampling different banks never share a buffer. *)
type scratch = {
  wrow : float array;
  srow : float array;
  xrow : float array;
  nplane : A.Rng.ba;
  wbuf : float array;
  sbuf : float array;  (* [0] = charge-share accumulator *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let lanes () = Array.make Params.lanes 0.0 in
      {
        wrow = lanes ();
        srow = lanes ();
        xrow = lanes ();
        nplane =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout tile_floats;
        wbuf = lanes ();
        sbuf = Array.make 1 0.0;
      })

let fusable (task : Task.t) =
  (match task.class1 with
  | Opcode.C1_aread | Opcode.C1_asubt | Opcode.C1_aadd -> true
  | Opcode.C1_none | Opcode.C1_write | Opcode.C1_read -> false)
  && task.class2.Opcode.avd && Task.uses_adc task

let specialize ?lane_mask bank ~(task : Task.t) ~active_lanes =
  if active_lanes < 1 || active_lanes > Params.lanes then
    invalid_arg "Kernel.specialize: active_lanes out of [1, 128]";
  let faults = Bank.faults bank in
  (* transient X-REG upsets draw a data-dependent number of variates
     per X read; the scalar path models them draw for draw *)
  if (not (fusable task)) || Option.is_some (Faults.xreg_flip faults) then
    None
  else begin
    let p = task.op_param in
    let profile = Bank.profile bank in
    let c1 =
      match task.class1 with
      | Opcode.C1_aread -> K_aread
      | Opcode.C1_asubt -> K_asubt
      | Opcode.C1_aadd -> K_aadd
      | _ -> assert false
    in
    let asd =
      match task.class2.Opcode.asd with
      | Opcode.Asd_none -> S_none
      | Opcode.Asd_compare -> S_compare
      | Opcode.Asd_absolute -> S_absolute
      | Opcode.Asd_square -> S_square
      | Opcode.Asd_sign_mult -> S_sign_mult
      | Opcode.Asd_unsign_mult -> S_unsign_mult
    in
    let swing = Faults.effective_swing faults ~swing:p.Op_param.swing in
    let aread_lut =
      Bank.lut_for_profile profile (fun () -> A.Lut.Silicon.aread)
    in
    (* the aREAD input domain is exactly the 256 codes: pre-sample the
       curve and the per-code sigma with the scalar path's own
       arithmetic, so table lookups are bit-identical to it *)
    let shaped =
      Array.init 256 (fun i ->
          A.Lut.apply aread_lut (float_of_int (i - 128) /. 128.0))
    in
    let nf = A.Swing.noise_factor swing in
    let sigma = Array.init 256 (fun i -> Float.abs shaped.(i) *. nf) in
    let asd_tbl =
      let tbl select = A.Lut.table (Bank.lut_for_profile profile select) in
      match asd with
      | S_none -> [||]
      | S_compare -> tbl (fun () -> A.Lut.Silicon.compare_)
      | S_absolute -> tbl (fun () -> A.Lut.Silicon.absolute)
      | S_square -> tbl (fun () -> A.Lut.Silicon.square)
      | S_sign_mult | S_unsign_mult -> tbl (fun () -> A.Lut.Silicon.mult)
    in
    let has_leak =
      match profile with
      | Bank.Ideal | Bank.Custom { leakage = false; _ } -> false
      | Bank.Silicon | Bank.Custom { leakage = true; _ } -> true
    in
    let leak =
      if not has_leak then 1.0
      else
        let tp = Timing.task_tp task in
        let idle =
          float_of_int (max 0 (tp - Timing.class1_delay task.class1))
          *. Params.cycle_ns
        in
        A.Leakage.bitline_factor
          ~idle_ns:(Faults.effective_idle_ns faults ~idle_ns:idle)
    in
    let override_on = Array.make Params.lanes false in
    let override_val = Array.make Params.lanes 0.0 in
    let override_any =
      if Faults.is_dead_bank faults then begin
        Array.fill override_on 0 Params.lanes true;
        true
      end
      else begin
        (* stuck first, dead second: the scalar [Faults.apply_stuck]
           order, so a lane both stuck and dead ends up dead *)
        List.iter
          (fun (lane, code) ->
            if lane < Params.lanes then begin
              override_on.(lane) <- true;
              override_val.(lane) <- float_of_int code /. 128.0
            end)
          (Faults.stuck_lanes faults);
        List.iter
          (fun lane ->
            if lane < Params.lanes then begin
              override_on.(lane) <- true;
              override_val.(lane) <- 0.0
            end)
          (Faults.dead_lanes faults);
        Faults.stuck_lanes faults <> [] || Faults.dead_lanes faults <> []
      end
    in
    let acc_on = Array.make Params.lanes false in
    let acc_empty, divisor =
      match lane_mask with
      | None ->
          Array.fill acc_on 0 active_lanes true;
          (false, float_of_int active_lanes)
      | Some mask ->
          let n = ref 0 in
          Array.iteri
            (fun i on ->
              if on && i < Params.lanes then begin
                acc_on.(i) <- true;
                incr n
              end)
            mask;
          (!n = 0, float_of_int !n)
    in
    let x_base =
      match asd with
      | S_sign_mult | S_unsign_mult -> p.Op_param.x_addr2
      | _ -> p.Op_param.x_addr1
    in
    Some
      {
        bank;
        task;
        active_lanes;
        lane_mask;
        faults;
        array = Bank.array bank;
        xreg = Bank.xreg bank;
        c1;
        asd;
        uses_x =
          Opcode.class1_reads_x task.class1
          || Opcode.asd_reads_x task.class2.Opcode.asd;
        iters = Task.iterations task;
        shaped;
        sigma;
        noise_rng = A.Noise.rng (Bank.noise bank);
        asd_tbl;
        has_leak;
        leak;
        override_any;
        override_on;
        override_val;
        acc_on;
        acc_empty;
        divisor;
        w_addr = p.Op_param.w_addr;
        x_base;
        x_period = p.Op_param.x_prd + 1;
        adc_offset = Faults.adc_offset faults;
      }
  end

let matches t bank ~task ~active_lanes ~lane_mask =
  t.bank == bank
  && Task.equal t.task task
  && t.active_lanes = active_lanes
  && (match (t.lane_mask, lane_mask) with
     | None, None -> true
     | Some a, Some b -> a == b || a = b
     | None, Some _ | Some _, None -> false)
  && Faults.equal t.faults (Bank.faults bank)

(* [sample_batch_into] processes a whole batch of decisions in one
   pass. BIT-IDENTITY: the samples written are exactly what [batch]
   back-to-back scalar decisions (iteration 0..k per decision,
   decision-major) would produce, because

   - the bank's noise stream is consumed decision-major and contiguously
     either way: the scalar path draws one 128-lane vector per
     iteration, so N decisions consume N·iters·128 draws in
     (decision, iteration, lane) order — exactly the order
     [Rng.gaussian_fill_ba] lays each tile of decisions out in (128-lane
     vectors are even, so the Box-Muller cache is empty at every
     decision boundary and fills compose). With a tile's noise drawn,
     no sample depends on another, so the loop may run
     iteration-major inside the tile;
   - the hoisted per-lane rows hold the same float values the scalar
     path recomputes per decision ([wrow] the pre-sampled aREAD value
     with the stuck/dead override folded in as (wrow, srow=0) —
     override_val +. 0.0·g ≡ override_val for every real g — [srow]
     the per-code sigma, [xrow] the normalized X), and every arithmetic
     step below applies the scalar path's operations in the scalar
     path's order. *)

(* [Lut.apply_raw] on an aSD transfer curve [e] ([en1] = its last index,
   [fen1] the same as a float), spelled out — clamp, position, floor,
   lerp: same operations, same order — and inlined, because an
   out-of-line float-returning call would box its result on every lane.
   The clamp is written with comparisons instead of
   [Float.min]/[Float.max] for the same reason; for every non-NaN input
   the result is bitwise the same, and the analog chain can produce no
   NaN. *)
let[@inline] asd_curve e ~en1 ~fen1 v =
  let v = if v < -1.0 then -1.0 else if v > 1.0 then 1.0 else v in
  let pos = (v +. 1.0) /. 2.0 *. fen1 in
  let i0 = int_of_float (Float.floor pos) in
  if i0 >= en1 then Array.unsafe_get e en1
  else
    let frac = pos -. float_of_int i0 in
    ((1.0 -. frac) *. Array.unsafe_get e i0)
    +. (frac *. Array.unsafe_get e (i0 + 1))

(* Hoist iteration [i]'s per-lane invariants into the domain's rows. *)
let prepare_row t s i =
  let row =
    Bitcell_array.row_unsafe t.array
      ~word_row:((t.w_addr + i) mod Params.word_rows)
  in
  for lane = 0 to Params.lanes - 1 do
    if t.override_any && Array.unsafe_get t.override_on lane then begin
      (* fold the post-noise stuck/dead override into the rows:
         v +. 0.0 *. g is bitwise v for every finite g *)
      Array.unsafe_set s.wrow lane (Array.unsafe_get t.override_val lane);
      Array.unsafe_set s.srow lane 0.0
    end
    else begin
      let idx = Array.unsafe_get row lane + 128 in
      Array.unsafe_set s.wrow lane (Array.unsafe_get t.shaped idx);
      Array.unsafe_set s.srow lane (Array.unsafe_get t.sigma idx)
    end
  done;
  if t.uses_x then begin
    let xr = Xreg.row_unsafe t.xreg ~index:((t.x_base + i) mod t.x_period) in
    for lane = 0 to Params.lanes - 1 do
      Array.unsafe_set s.xrow lane
        (float_of_int (Array.unsafe_get xr lane) /. 128.0)
    done
  end

let sample_batch_into t ~adc_gain ~batch ~(dst : A.Rng.ba) ~off =
  if batch < 1 then invalid_arg "Kernel.sample_batch_into: batch must be >= 1";
  if adc_gain <= 0.0 then invalid_arg "Kernel.sample_batch_into: adc_gain <= 0";
  let iters = t.iters in
  if off < 0 || off + (batch * iters) > Bigarray.Array1.dim dst then
    invalid_arg "Kernel.sample_batch_into: dst slice out of range";
  let lanes = Params.lanes in
  let s = Domain.DLS.get scratch_key in
  let noisy = Option.is_some t.noise_rng in
  let per_dec = iters * lanes in
  let tile_d = if not noisy then batch else max 1 (tile_floats / per_dec) in
  let wrow = s.wrow and srow = s.srow and xrow = s.xrow in
  let np = s.nplane in
  let e = t.asd_tbl in
  let en1 = Array.length e - 1 in
  let fen1 = float_of_int en1 in
  let wbuf = s.wbuf and sbuf = s.sbuf in
  let d = ref 0 in
  while !d < batch do
    let td = min tile_d (batch - !d) in
    (match t.noise_rng with
    | Some rng -> A.Rng.gaussian_fill_ba rng np ~len:(td * per_dec)
    | None -> ());
    for i = 0 to iters - 1 do
      prepare_row t s i;
      for dr = 0 to td - 1 do
        let gb = (dr * per_dec) + (i * lanes) in
        (* pass 1 — class-1 value per lane (the scalar chain:
           noise-apply, override [folded into the rows], X-combine,
           idle leakage) *)
        (match t.c1 with
        | K_aread ->
            for lane = 0 to lanes - 1 do
              let w =
                if noisy then
                  Array.unsafe_get wrow lane
                  +. (Array.unsafe_get srow lane *. np.{gb + lane})
                else Array.unsafe_get wrow lane
              in
              Array.unsafe_set wbuf lane (if t.has_leak then w *. t.leak else w)
            done
        | K_asubt ->
            for lane = 0 to lanes - 1 do
              let w =
                if noisy then
                  Array.unsafe_get wrow lane
                  +. (Array.unsafe_get srow lane *. np.{gb + lane})
                else Array.unsafe_get wrow lane
              in
              let v = (w -. Array.unsafe_get xrow lane) /. 2.0 in
              Array.unsafe_set wbuf lane (if t.has_leak then v *. t.leak else v)
            done
        | K_aadd ->
            for lane = 0 to lanes - 1 do
              let w =
                if noisy then
                  Array.unsafe_get wrow lane
                  +. (Array.unsafe_get srow lane *. np.{gb + lane})
                else Array.unsafe_get wrow lane
              in
              let v = (w +. Array.unsafe_get xrow lane) /. 2.0 in
              Array.unsafe_set wbuf lane (if t.has_leak then v *. t.leak else v)
            done);
        (* pass 2 — aSD + charge share; the sum runs over the membership
           lanes in ascending order — the same subset and order as
           [Bank.charge_share] *)
        Array.unsafe_set sbuf 0 0.0;
        (match t.asd with
        | S_none ->
            for lane = 0 to lanes - 1 do
              if Array.unsafe_get t.acc_on lane then
                Array.unsafe_set sbuf 0
                  (Array.unsafe_get sbuf 0 +. Array.unsafe_get wbuf lane)
            done
        | S_compare ->
            for lane = 0 to lanes - 1 do
              if Array.unsafe_get t.acc_on lane then
                let u = asd_curve e ~en1 ~fen1 (Array.unsafe_get wbuf lane) in
                Array.unsafe_set sbuf 0
                  (Array.unsafe_get sbuf 0 +. if u >= 0.0 then 1.0 else 0.0)
            done
        | S_absolute ->
            for lane = 0 to lanes - 1 do
              if Array.unsafe_get t.acc_on lane then
                let u = asd_curve e ~en1 ~fen1 (Array.unsafe_get wbuf lane) in
                Array.unsafe_set sbuf 0 (Array.unsafe_get sbuf 0 +. Float.abs u)
            done
        | S_square ->
            for lane = 0 to lanes - 1 do
              if Array.unsafe_get t.acc_on lane then
                let u = asd_curve e ~en1 ~fen1 (Array.unsafe_get wbuf lane) in
                Array.unsafe_set sbuf 0 (Array.unsafe_get sbuf 0 +. (u *. u))
            done
        | S_sign_mult ->
            for lane = 0 to lanes - 1 do
              if Array.unsafe_get t.acc_on lane then
                let v =
                  Array.unsafe_get wbuf lane *. Array.unsafe_get xrow lane
                in
                Array.unsafe_set sbuf 0
                  (Array.unsafe_get sbuf 0 +. asd_curve e ~en1 ~fen1 v)
            done
        | S_unsign_mult ->
            for lane = 0 to lanes - 1 do
              if Array.unsafe_get t.acc_on lane then
                let v =
                  Float.abs (Array.unsafe_get wbuf lane)
                  *. Float.abs (Array.unsafe_get xrow lane)
                in
                Array.unsafe_set sbuf 0
                  (Array.unsafe_get sbuf 0 +. asd_curve e ~en1 ~fen1 v)
            done);
        let cs =
          if t.acc_empty then 0.0 else Array.unsafe_get sbuf 0 /. t.divisor
        in
        (* ADC: [Adc.convert] inlined ([quantize] then [dequantize]) *)
        let analog = (adc_gain *. cs) +. t.adc_offset in
        let lsb = A.Adc.lsb in
        let half = A.Adc.levels / 2 in
        let code = int_of_float (Float.round (analog /. lsb)) + half in
        let code =
          if code < 0 then 0
          else if code > A.Adc.levels - 1 then A.Adc.levels - 1
          else code
        in
        dst.{off + ((!d + dr) * iters) + i} <-
          float_of_int (code - half) *. lsb /. adc_gain
      done
    done;
    d := !d + td
  done
