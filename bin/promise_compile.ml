(* promise-compile: compile an S-expression kernel file to PROMISE
   assembly or binary (the textual path through the language-neutral
   IR; see lib/ir/sexp_frontend.mli for the grammar).

   Usage:
     promise_compile kernel.sexp                 # assembly to stdout
     promise_compile kernel.sexp --binary out.bin
     promise_compile kernel.sexp --ir            # dump the IR graph
     promise_compile kernel.sexp --swing 3       # force a swing code *)

module P = Promise

let die msg =
  prerr_endline ("promise-compile: " ^ msg);
  exit 1

let die_err e = die (P.Error.to_string e)

let run path binary show_ir swing lint =
  let kernel =
    match P.Ir.Sexp_frontend.parse_file path with
    | Ok k -> k
    | Error msg -> die msg
  in
  let graph =
    match P.compile kernel with Ok g -> g | Error e -> die_err e
  in
  let graph =
    match swing with
    | None -> graph
    | Some s ->
        P.Ir.Graph.map_tasks graph (fun _ t ->
            P.Ir.Abstract_task.with_swing t s)
  in
  if show_ir then Format.printf "%a@." P.Ir.Graph.pp graph;
  let program =
    match P.Compiler.Pipeline.codegen graph with
    | Ok p -> p
    | Error e -> die_err e
  in
  (* --lint: promise-lint's kernel lint; the report goes to stderr so
     stdout stays the program *)
  if lint then
    Result.iter_error die
      (Cli.lint_report (P.Compiler.Pipeline.lint_kernel ~target:path kernel));
  (match binary with
  | Some out ->
      let oc = open_out_bin out in
      output_bytes oc (P.Isa.Program.to_binary program);
      close_out oc;
      Printf.printf "wrote %d task(s), %d bytes to %s\n"
        (P.Isa.Program.length program)
        (Bytes.length (P.Isa.Program.to_binary program))
        out
  | None -> print_string (P.Isa.Program.to_asm program));
  `Ok ()

open Cmdliner

let path_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"KERNEL" ~doc:"S-expression kernel file.")

let binary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "binary" ] ~docv:"OUT" ~doc:"Write binary Tasks to $(docv).")

let ir_arg =
  Arg.(value & flag & info [ "ir" ] ~doc:"Dump the AbstractTask IR graph.")

let swing_arg =
  Arg.(
    value
    & opt (some (Cli.validated_int ~what:"--swing" ~min:0 ~max:7)) None
    & info [ "swing" ] ~docv:"N" ~doc:"Force SWING code 0-7 on every task.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run promise-lint's kernel lint (the SSA list, interval overflow \
           analysis and the Task list) on the kernel; the report goes to \
           stderr.")

let () =
  let info =
    Cmd.info "promise-compile" ~version:Promise.version
      ~doc:"compile an S-expression kernel to the PROMISE ISA"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            ret
              (const run $ path_arg $ binary_arg $ ir_arg $ swing_arg
             $ lint_arg))))
