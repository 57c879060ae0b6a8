type policy =
  | Off
  | Fail_once
  | Fail_prob of float
  | Delay_ns of int64
  | Eintr

type fire = Fail | Delay of int64 | Interrupt

(* The stable site catalog. Names are an interface (tests, chaos
   schedules and CI greps depend on them); grow it, never rename. *)
let sites =
  [
    "ipc.read";
    "ipc.write";
    "checkpoint.save";
    "incident.write";
    "incident.rotate";
    "queue.admit";
    "serve.flush";
    "serve.dispatch";
    "machine.execute";
    "runtime.run";
  ]

(* ------------------------------------------------------------------ *)
(* Per-site splitmix64 decision streams                                *)
(* ------------------------------------------------------------------ *)

(* Same finalizer as Promise_analog.Rng (Steele, Lea & Flood 2014) —
   duplicated because lib/base sits below lib/analog. Only the mixing
   constants matter; the streams never have to match Rng's. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* 53-bit uniform in [0,1) from a mutable stream state. *)
let next_float state =
  state := Int64.add !state golden_gamma;
  let z = mix !state in
  Int64.to_float (Int64.shift_right_logical z 11)
  *. (1.0 /. 9007199254740992.0)

(* The site stream's root folds the seed with the site name, so two
   sites armed in one run draw independent sequences and the check
   interleaving of one site never perturbs another's schedule. *)
let stream_root ~seed name =
  let h = ref (mix (Int64.of_int seed)) in
  String.iter
    (fun c -> h := mix (Int64.logxor !h (Int64.of_int (Char.code c))))
    name;
  !h

type site_state = {
  name : string;
  mutable policy : policy;
  rng : int64 ref;
  mutable hits : int;
  mutable fires : int;
}

(* [armed] flips only under [lock]; [check]'s fast path reads it with
   one atomic load and touches nothing else, so a production binary
   pays ~zero for the compiled-in sites. *)
let armed = Atomic.make false
let lock = Mutex.create ()
let table : (string, site_state) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []

let reset () =
  Mutex.protect lock (fun () ->
      Atomic.set armed false;
      Hashtbl.reset table;
      order := [])

let enabled () = Atomic.get armed

let fail_conf msg ctx =
  Error.fail ~layer:"failpoint" ~code:Error.Invalid_operand ~context:ctx msg

let validate_assignment (name, policy) =
  if not (List.mem name sites) then
    fail_conf "unknown failpoint site"
      [ ("site", name); ("known", String.concat " " sites) ]
  else
    match policy with
    | Fail_prob p when not (p >= 0.0 && p <= 1.0) ->
        fail_conf "fail_prob must be in [0, 1]"
          [ ("site", name); ("p", string_of_float p) ]
    | Delay_ns n when Int64.compare n 0L < 0 ->
        fail_conf "delay_ns must be >= 0"
          [ ("site", name); ("ns", Int64.to_string n) ]
    | _ -> Ok ()

let configure ?(seed = 0) assignments =
  let rec check_all = function
    | [] -> Ok ()
    | a :: rest -> (
        match validate_assignment a with
        | Error _ as e -> e
        | Ok () -> check_all rest)
  in
  match check_all assignments with
  | Error _ as e -> e
  | Ok () ->
      Mutex.protect lock (fun () ->
          Hashtbl.reset table;
          order := [];
          List.iter
            (fun (name, policy) ->
              if not (Hashtbl.mem table name) then
                order := name :: !order;
              Hashtbl.replace table name
                {
                  name;
                  policy;
                  rng = ref (stream_root ~seed name);
                  hits = 0;
                  fires = 0;
                })
            assignments;
          order := List.rev !order;
          Atomic.set armed (Hashtbl.length table > 0));
      Ok ()

(* ------------------------------------------------------------------ *)
(* The check                                                           *)
(* ------------------------------------------------------------------ *)

let check_armed name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | None -> None
      | Some s ->
          s.hits <- s.hits + 1;
          let fired =
            match s.policy with
            | Off -> None
            | Fail_once ->
                s.policy <- Off;
                Some Fail
            | Fail_prob p -> if next_float s.rng < p then Some Fail else None
            | Delay_ns n -> Some (Delay n)
            | Eintr -> if next_float s.rng < 0.5 then Some Interrupt else None
          in
          (match fired with Some _ -> s.fires <- s.fires + 1 | None -> ());
          fired)

let check name = if Atomic.get armed then check_armed name else None

type stat = { site : string; hits : int; fires : int }

let stats () =
  Mutex.protect lock (fun () ->
      List.filter_map
        (fun name ->
          match Hashtbl.find_opt table name with
          | None -> None
          | Some s -> Some { site = s.name; hits = s.hits; fires = s.fires })
        !order)

(* ------------------------------------------------------------------ *)
(* The spec grammar: site:policy[,site:policy...]                      *)
(* ------------------------------------------------------------------ *)

let parse_policy ~clause s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Ok Off
  | "fail_once" -> Ok Fail_once
  | "eintr" -> Ok Eintr
  | p -> (
      match String.index_opt p '=' with
      | Some i -> (
          let key = String.sub p 0 i in
          let v = String.sub p (i + 1) (String.length p - i - 1) in
          match key with
          | "fail_prob" -> (
              match float_of_string_opt v with
              | Some f when f >= 0.0 && f <= 1.0 -> Ok (Fail_prob f)
              | _ ->
                  fail_conf "fail_prob needs a probability in [0, 1]"
                    [ ("clause", clause) ])
          | "delay_ns" -> (
              match Int64.of_string_opt v with
              | Some n when Int64.compare n 0L >= 0 -> Ok (Delay_ns n)
              | _ ->
                  fail_conf "delay_ns needs a non-negative integer"
                    [ ("clause", clause) ])
          | _ ->
              fail_conf "unknown failpoint policy"
                [ ("clause", clause); ("policy", key) ])
      | None ->
          fail_conf
            "expected off, fail_once, eintr, fail_prob=P or delay_ns=N"
            [ ("clause", clause); ("policy", p) ])

let parse_spec spec =
  let spec = String.trim spec in
  if spec = "" then Ok []
  else
    let clauses = String.split_on_char ',' spec in
    List.fold_left
      (fun acc clause ->
        match acc with
        | Error _ as e -> e
        | Ok parsed -> (
            let clause = String.trim clause in
            match String.index_opt clause ':' with
            | None ->
                fail_conf "expected site:policy" [ ("clause", clause) ]
            | Some i -> (
                let site = String.trim (String.sub clause 0 i) in
                let pol =
                  String.sub clause (i + 1) (String.length clause - i - 1)
                in
                match parse_policy ~clause pol with
                | Error _ as e -> e
                | Ok policy -> (
                    match validate_assignment (site, policy) with
                    | Error _ as e -> e
                    | Ok () -> Ok ((site, policy) :: parsed)))))
      (Ok []) clauses
    |> Result.map List.rev

let configure_spec ?seed spec =
  match parse_spec spec with
  | Error _ as e -> e
  | Ok assignments -> configure ?seed assignments
