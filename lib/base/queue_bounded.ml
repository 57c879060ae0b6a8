type 'a t = {
  lock : Mutex.t;
  q : 'a Queue.t;
  capacity : int;
  mutable pushed : int;
  mutable rejected : int;
  mutable popped : int;
  mutable max_depth : int;
}

type stats = { pushed : int; rejected : int; popped : int; max_depth : int }

let max_capacity = 1_048_576

let create ~capacity =
  if capacity < 1 || capacity > max_capacity then
    Error.fail ~layer:"queue" ~code:Error.Invalid_operand
      ~context:
        [
          ("capacity", string_of_int capacity);
          ("max", string_of_int max_capacity);
        ]
      "queue capacity out of range"
  else
    Ok
      {
        lock = Mutex.create ();
        q = Queue.create ();
        capacity;
        pushed = 0;
        rejected = 0;
        popped = 0;
        max_depth = 0;
      }

let capacity t = t.capacity
let length t = Mutex.protect t.lock (fun () -> Queue.length t.q)

let try_push t v =
  Mutex.protect t.lock (fun () ->
      let depth = Queue.length t.q in
      let injected =
        match Failpoint.check "queue.admit" with
        | Some Failpoint.Fail -> true
        | Some (Failpoint.Delay _) | Some Failpoint.Interrupt | None -> false
      in
      if injected then begin
        t.rejected <- t.rejected + 1;
        Error.fail ~layer:"queue" ~code:Error.Capacity
          ~context:
            [
              ("depth", string_of_int depth);
              ("capacity", string_of_int t.capacity);
              ("injected", "true");
            ]
          "queue full; request rejected"
      end
      else if depth >= t.capacity then begin
        t.rejected <- t.rejected + 1;
        Error.fail ~layer:"queue" ~code:Error.Capacity
          ~context:
            [
              ("depth", string_of_int depth);
              ("capacity", string_of_int t.capacity);
            ]
          "queue full; request rejected"
      end
      else begin
        Queue.push v t.q;
        t.pushed <- t.pushed + 1;
        if depth + 1 > t.max_depth then t.max_depth <- depth + 1;
        Ok ()
      end)

let peek_opt t = Mutex.protect t.lock (fun () -> Queue.peek_opt t.q)

let pop_opt t =
  Mutex.protect t.lock (fun () ->
      match Queue.take_opt t.q with
      | Some v ->
          t.popped <- t.popped + 1;
          Some v
      | None -> None)

let drain ?max t =
  Mutex.protect t.lock (fun () ->
      let limit = match max with Some m -> m | None -> Queue.length t.q in
      let rec go acc n =
        if n = 0 then List.rev acc
        else
          match Queue.take_opt t.q with
          | None -> List.rev acc
          | Some v ->
              t.popped <- t.popped + 1;
              go (v :: acc) (n - 1)
      in
      go [] (Stdlib.max 0 limit))

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        pushed = t.pushed;
        rejected = t.rejected;
        popped = t.popped;
        max_depth = t.max_depth;
      })
