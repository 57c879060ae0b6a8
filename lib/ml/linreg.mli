(** 2-D linear regression via the four reduction statistics of Table 2:
    slope = (E[uv] − E[u]E[v]) / (E[u²] − E[u]²),
    intercept = E[v] − slope·E[u].
    Each statistic is one PROMISE AbstractTask (mean, mean, mean-square,
    mean-product). *)

type fit = { slope : float; intercept : float }

(** [of_statistics ~mean_u ~mean_v ~mean_u2 ~mean_uv] — closed form from
    the four reductions; raises [Invalid_argument] on zero variance. *)
val of_statistics :
  mean_u:float -> mean_v:float -> mean_u2:float -> mean_uv:float -> fit

(** [fit u v] — reference float implementation. *)
val fit : Linalg.vec -> Linalg.vec -> fit
