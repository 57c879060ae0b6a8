(* promise-asm: assemble PROMISE assembly to binary Task words and
   disassemble them back (paper Fig. 5 encoding).

   Usage:
     promise_asm assemble  [FILE]   # asm -> hex words on stdout
     promise_asm disassemble [FILE] # hex words -> asm on stdout
     promise_asm validate  [FILE]   # parse + validate, report task count *)

module P = Promise

let read_input = function
  | None ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf stdin 1
         done
       with End_of_file -> ());
      Buffer.contents buf
  | Some path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let die msg =
  prerr_endline ("promise-asm: " ^ msg);
  exit 1

let target_of = function None -> "<stdin>" | Some path -> path

(* --lint runs promise-lint's .pasm lint (or, on disassembled words,
   the Task list); the report goes to stderr so stdout stays the
   assembled/validated output. *)
let lint_or_die report = Result.iter_error die (Cli.lint_report report)

let lint_source ~lint ~file src =
  if lint then
    lint_or_die (P.Analysis.Lint.lint_pasm ~target:(target_of file) src)

let assemble file lint =
  let src = read_input file in
  match P.Isa.Asm.parse_program src with
  | Error msg -> die msg
  | Ok tasks ->
      lint_source ~lint ~file src;
      List.iter (fun t -> print_endline (P.Isa.Encode.hex_of_task t)) tasks;
      `Ok ()

let disassemble file lint =
  let lines =
    read_input file |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let tasks =
    List.mapi
      (fun i line ->
        match P.Isa.Encode.task_of_hex line with
        | Ok t -> t
        | Error msg -> die (Printf.sprintf "word %d: %s" (i + 1) msg))
      lines
  in
  if lint then
    lint_or_die
      (P.Analysis.Lint.make ~target:(target_of file)
         (P.Analysis.Lint.task_passes tasks));
  print_string (P.Isa.Asm.print_program tasks);
  `Ok ()

let validate file lint =
  let src = read_input file in
  match P.Isa.Asm.parse_program src with
  | Error msg -> die msg
  | Ok tasks ->
      lint_source ~lint ~file src;
      Printf.printf "%d task(s) valid; program uses up to %d bank(s)\n"
        (List.length tasks)
        (List.fold_left (fun a t -> max a (P.Isa.Task.banks t)) 1 tasks);
      `Ok ()

open Cmdliner

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Input file; standard input when omitted.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run promise-lint's Task list (the whole-program Task-ISA \
           verifier, shadowed X-REG stores and analog dwell timing) on the \
           input; the report goes to stderr.")

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(ret (const f $ file_arg $ lint_arg))

let () =
  let info =
    Cmd.info "promise-asm" ~version:P.version
      ~doc:"PROMISE Task assembler / disassembler"
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            cmd "assemble" "assemble PROMISE assembly into hex Task words"
              assemble;
            cmd "disassemble" "disassemble hex Task words into assembly"
              disassemble;
            cmd "validate" "parse and validate a PROMISE assembly program"
              validate;
          ]))
