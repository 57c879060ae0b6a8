let bitline_rate_per_ns = 0.006
let capacitor_rate_per_ns = 0.0005

(* The droop multiplier alone, so per-task-constant idle times can pay
   the [exp] once instead of once per lane; [droop ~rate ~ns v] is
   exactly [v *. droop_factor ~rate ~ns], keeping the hoisted form
   bit-identical to the per-value one. *)
let droop_factor ~rate_per_ns ~ns =
  if ns < 0.0 then invalid_arg "Leakage.droop: negative time";
  exp (-.rate_per_ns *. ns)

let droop ~rate_per_ns ~ns v = v *. droop_factor ~rate_per_ns ~ns

let bitline ~idle_ns v = droop ~rate_per_ns:bitline_rate_per_ns ~ns:idle_ns v

let bitline_factor ~idle_ns =
  droop_factor ~rate_per_ns:bitline_rate_per_ns ~ns:idle_ns
module For_tests = struct
  let bitline_rate_per_ns = bitline_rate_per_ns
  let droop = droop
end
