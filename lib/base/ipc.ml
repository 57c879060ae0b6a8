let magic = "PIP1"
let header_len = 8 (* 4 magic + 4 length, big-endian *)
let max_frame_bytes = 256 * 1024 * 1024

let fail ~code msg ctx = Error.fail ~layer:"ipc" ~code ~context:ctx msg

let unix_ctx fn msg = [ ("syscall", fn); ("unix", msg) ]

(* ------------------------------------------------------------------ *)
(* Blocking full transfers with EINTR retry                            *)
(* ------------------------------------------------------------------ *)

(* Failpoint semantics at the transfer loops: [Fail] on write is a
   typed write error, [Fail] on read simulates the peer dying at the
   current offset (clean EOF between frames, truncation mid-frame);
   [Interrupt] clamps the transfer to one byte — a short read/write the
   loop must absorb, exactly the shape a signal-interrupted syscall
   produces. *)
let fp_sleep ns = Unix.sleepf (Int64.to_float ns /. 1e9)

let rec write_all fd buf ofs len =
  if len = 0 then Ok ()
  else
    let req =
      match Failpoint.check "ipc.write" with
      | None -> len
      | Some Failpoint.Fail -> -1
      | Some (Failpoint.Delay ns) ->
          fp_sleep ns;
          len
      | Some Failpoint.Interrupt -> 1
    in
    if req < 0 then
      fail ~code:Error.Invalid_operand "frame write failed"
        (unix_ctx "write" "injected write failure")
    else
      match Unix.write fd buf ofs req with
      | n -> write_all fd buf (ofs + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          write_all fd buf ofs len
      | exception Unix.Unix_error (err, fn, _) ->
          fail ~code:Error.Invalid_operand "frame write failed"
            (unix_ctx fn (Unix.error_message err))

(* [`Eof n] = the peer closed after [n] of [len] bytes. *)
let rec read_all fd buf ofs len =
  if len = 0 then Ok `Done
  else
    let req =
      match Failpoint.check "ipc.read" with
      | None -> len
      | Some Failpoint.Fail -> -1
      | Some (Failpoint.Delay ns) ->
          fp_sleep ns;
          len
      | Some Failpoint.Interrupt -> 1
    in
    if req < 0 then Ok (`Eof ofs)
    else
      match Unix.read fd buf ofs req with
      | 0 -> Ok (`Eof ofs)
      | n -> read_all fd buf (ofs + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf ofs len
      | exception Unix.Unix_error (err, fn, _) ->
          fail ~code:Error.Invalid_operand "frame read failed"
            (unix_ctx fn (Unix.error_message err))

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let write fd v =
  let payload = Marshal.to_bytes v [] in
  let n = Bytes.length payload in
  if n > max_frame_bytes then
    fail ~code:Error.Capacity "message exceeds the frame limit"
      [
        ("bytes", string_of_int n);
        ("max", string_of_int max_frame_bytes);
      ]
  else begin
    let frame = Bytes.create (header_len + n) in
    Bytes.blit_string magic 0 frame 0 4;
    Bytes.set_int32_be frame 4 (Int32.of_int n);
    Bytes.blit payload 0 frame header_len n;
    write_all fd frame 0 (Bytes.length frame)
  end

let read fd =
  let header = Bytes.create header_len in
  match read_all fd header 0 header_len with
  | Error e -> Error e
  | Ok (`Eof 0) -> Ok None (* clean EOF between frames *)
  | Ok (`Eof n) ->
      fail ~code:Error.Invalid_operand "peer died mid-header"
        [ ("got-bytes", string_of_int n) ]
  | Ok `Done ->
      if Bytes.sub_string header 0 4 <> magic then
        fail ~code:Error.Invalid_operand "bad frame magic"
          [ ("magic", String.escaped (Bytes.sub_string header 0 4)) ]
      else
        let len = Int32.to_int (Bytes.get_int32_be header 4) in
        if len < 0 || len > max_frame_bytes then
          fail ~code:Error.Invalid_operand "corrupt frame length"
            [ ("length", string_of_int len) ]
        else
          let payload = Bytes.create len in
          match read_all fd payload 0 len with
          | Error e -> Error e
          | Ok (`Eof n) ->
              fail ~code:Error.Invalid_operand "peer died mid-frame"
                [
                  ("got-bytes", string_of_int n);
                  ("frame-bytes", string_of_int len);
                ]
          | Ok `Done -> (
              match Marshal.from_bytes payload 0 with
              | v -> Ok (Some v)
              | exception Failure msg ->
                  fail ~code:Error.Invalid_operand "unmarshal failed"
                    [ ("error", msg) ])

let with_sigpipe_ignored f =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | exception (Invalid_argument _ | Sys_error _) -> f ()
  | previous ->
      Fun.protect f ~finally:(fun () ->
          try Sys.set_signal Sys.sigpipe previous
          with Invalid_argument _ | Sys_error _ -> ())
