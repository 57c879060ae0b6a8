type policy = {
  max_attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  jitter : float;
  seed : int;
}

let policy ?(max_attempts = 3) ?(base_delay_ms = 50.0) ?(max_delay_ms = 2000.0)
    ?(jitter = 0.25) ~seed () =
  let fail msg ctx =
    Error.fail ~layer:"retry" ~code:Error.Invalid_operand ~context:ctx msg
  in
  if max_attempts < 1 then
    fail "max_attempts must be >= 1"
      [ ("max_attempts", string_of_int max_attempts) ]
  else if base_delay_ms < 0.0 || Float.is_nan base_delay_ms then
    fail "base_delay_ms must be >= 0"
      [ ("base_delay_ms", string_of_float base_delay_ms) ]
  else if max_delay_ms < base_delay_ms || Float.is_nan max_delay_ms then
    fail "max_delay_ms must be >= base_delay_ms"
      [
        ("base_delay_ms", string_of_float base_delay_ms);
        ("max_delay_ms", string_of_float max_delay_ms);
      ]
  else if jitter < 0.0 || jitter > 1.0 || Float.is_nan jitter then
    fail "jitter must be in [0, 1]" [ ("jitter", string_of_float jitter) ]
  else Ok { max_attempts; base_delay_ms; max_delay_ms; jitter; seed }

let no_retry ~seed =
  {
    max_attempts = 1;
    base_delay_ms = 0.0;
    max_delay_ms = 0.0;
    jitter = 0.0;
    seed;
  }

(* splitmix64 over (seed, attempt): the same finalizer the simulator's
   RNG uses, reimplemented here so lib/base stays dependency-free. *)
let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

(* u in [-1, 1): 53 uniform bits scaled to [0,1), then affine *)
let jitter_unit ~seed ~attempt =
  let h =
    splitmix64 (Int64.add (Int64.of_int seed)
                  (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int attempt)))
  in
  let u53 = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0 in
  (2.0 *. u53) -. 1.0

let backoff_ms p ~attempt =
  if attempt < 1 || p.max_attempts <= 1 then 0.0
  else begin
    let exp2 = if attempt - 1 >= 60 then infinity else Float.of_int (1 lsl (attempt - 1)) in
    let base = Float.min p.max_delay_ms (p.base_delay_ms *. exp2) in
    let d = base *. (1.0 +. (p.jitter *. jitter_unit ~seed:p.seed ~attempt)) in
    Float.max 0.0 d
  end

let schedule p =
  List.init (max 0 (p.max_attempts - 1)) (fun i -> backoff_ms p ~attempt:(i + 1))

let run ?(sleep = Clock.sleep_ms) ?(on_retry = fun ~attempt:_ ~delay_ms:_ _ -> ())
    p f =
  let rec go attempt =
    match f ~attempt with
    | Ok v -> Ok v
    | Error e when attempt < p.max_attempts ->
        let delay_ms = backoff_ms p ~attempt in
        on_retry ~attempt ~delay_ms e;
        sleep delay_ms;
        go (attempt + 1)
    | Error e ->
        let e =
          Error.with_context e
            [ ("attempts", string_of_int attempt);
              ("last-code", Error.code_name e.Error.code) ]
        in
        Error
          (if p.max_attempts > 1 then { e with Error.code = Error.Retry_exhausted }
           else e)
  in
  go 1

module For_tests = struct
  let schedule = schedule
end
