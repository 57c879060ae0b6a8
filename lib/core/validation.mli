(** The paper's three-level validation methodology (Fig. 8, §5) as a
    runnable self-check.

    The paper validates bottom-up: component-level models against
    measured silicon (energy/delay within 10%/9%), architecture-level
    functionality against small data sets, and application-level
    accuracy against large data sets. This module reproduces that
    structure against this repository's own ground truths: the
    published Table-3 numbers, the float reference implementations, and
    the benchmark accuracy budgets. [promise-report validation] runs
    it and exits 0 either way: the gate is the cram golden of its
    output ([test/cli/report.t]), which a [[FAIL]] line or a
    [validation FAILED] verdict breaks.

    The levels: component (Table-3 energies/delays, the noise σ model,
    LUT deviation bounds, ADC quantization error, PWM/sub-ranged read
    exactness); architecture (ideal-machine kernels vs the float
    references, the discrete-event scheduler vs the closed form, CTRL
    signal ordering); application (benchmark accuracy at maximum swing
    within the mismatch budgets, fast benchmarks only). *)

(** [report ppf] — print every level and the overall verdict. *)
val report : Format.formatter -> unit
