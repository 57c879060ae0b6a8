(* Recorded outputs the benchmark checks every run against. Simulated
   cycles and energy do not depend on the noise seed; accuracy does, so
   it is checked at seed 42 only. Floats are hex literals: bit-exact.
   A mismatch prints the observed value. *)

type eval = { cycles : int; energy_pj : float; accuracy_seed42 : float }

let eval_single =
  { cycles = 326771; energy_pj = 0x1.4322e83333334p+23; accuracy_seed42 = 0x1.fab6b9b6d85e3p-1 }
let eval_mc = { cycles = 2633200; energy_pj = 0x1.7ae7c5ffffffap+26; accuracy_seed42 = 0x1p+0 }

(* MD5 of the encoded binaries of the compile-cold kernels, in their
   listed order. *)
let compile_binaries_md5 = "4730e4332fca99d671cc69e811aec2ce"
