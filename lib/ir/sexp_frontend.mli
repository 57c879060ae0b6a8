(** A second, textual frontend: S-expression kernels.

    The paper's compiler IR is designed to be {e language-neutral} so
    new ML DSLs can be retargeted cheaply (§4.1, "Easily Extensible to
    ML Domain Specific Languages"). This module demonstrates that
    claim: a small S-expression kernel language that parses into the
    same {!Dsl} constructs — and therefore flows through the identical
    SSA → pattern-match → AbstractTask pipeline as the OCaml-embedded
    frontend.

    Grammar (one kernel per file):
    {v
    (kernel NAME
      (matrix W ROWS COLS) (vector x LEN) (output out LEN) ...
      (for ITERS out EXPR)            ; the Figure-7 loop
      (for-down ITERS out EXPR)       ; decrementing variant
      (argmin out) (argmax out)
      (mean W) (mean-square W) (mean-product U Vvec))

    EXPR := (dot W x) | (l1 W x) | (l2 W x)
          | (sum VEXPR)
          | (sigmoid EXPR) | (relu EXPR) | (threshold C EXPR)
    VEXPR := (row W) | (xvec x)
           | (vadd VEXPR VEXPR) | (vsub VEXPR VEXPR) | (vmul VEXPR VEXPR)
           | (vabs VEXPR) | (vsquare VEXPR) | (vcompare VEXPR)
    v}

    Comments run from [;] to end of line. *)

(** [parse src] — a {!Dsl.kernel}, or a located error message. *)
val parse : string -> (Dsl.kernel, string) result

(** [parse_file path]. *)
val parse_file : string -> (Dsl.kernel, string) result

(** {2 Exposed for tests} *)

type sexp = Atom of string | List of sexp list

(** {2 Test hooks} *)

module For_tests : sig
  val sexp_of_string : string -> (sexp list, string) result

  val pp_sexp : Format.formatter -> sexp -> unit
end
