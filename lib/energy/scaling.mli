(** ITRS-style process scaling (paper §6.2).

    The paper scales the published 14 nm FinFET k-NN accelerator [7] to
    65 nm before comparing: energy scales with capacitance (∝ feature
    size) and V_dd², with an extra factor for the FinFET → planar drive
    gap; delay scales with feature size and V_dd ratio. *)

type node = { nm : float; vdd : float; finfet : bool }

val n14_finfet : node
val n28_planar : node
val n65_planar : node

(** [energy_scale ~from_ ~to_] — multiply an energy measured at [from_]
    by this to estimate it at [to_]. *)
val energy_scale : from_:node -> to_:node -> float

(** [delay_scale ~from_ ~to_] — same for delays (divide throughputs). *)
val delay_scale : from_:node -> to_:node -> float
