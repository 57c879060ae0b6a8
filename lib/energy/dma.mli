(** The DMA block of the multi-bank architecture (paper Fig. 2(b)):
    staging W and X from outside the accelerator.

    The paper's per-decision numbers assume weights are pre-stored and
    X arrives over a DMA rail; it never prices those transfers. This
    module adds the missing accounting as an {e optional} overlay —
    the defaults reproduce the paper (no DMA charge), the report's
    fidelity section shows both — which matters most for Linear
    Regression, whose X-REG must be reloaded every Task (§6.2). *)

(** [x_bytes_per_decision g] — X traffic one inference decision moves
    into X-REGs: for each task consuming an X operand, its vector
    length per row chunk (broadcast) or the whole streamed array
    (element-wise reductions). 8-bit elements = 1 byte each. *)
val x_bytes_per_decision : Promise_ir.Graph.t -> int

(** [decision_overhead g] — (extra cycles, extra pJ) per decision from
    the X traffic. *)
val decision_overhead : Promise_ir.Graph.t -> int * float
