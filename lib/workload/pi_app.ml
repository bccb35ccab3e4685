(* The remaining-work counter is per-tick mutable float state; keeping it
   in an all-float sub-record makes the execute-path store unboxed. *)
type progress = { mutable remaining : float }

type t = {
  total_work : float;
  duty_cycle : float;
  progress : progress;
  mutable tokens : Sim_time.t; (* accumulated CPU-time demand *)
  mutable start_time : Sim_time.t option;
  mutable finish_time : Sim_time.t option;
}

(* Demand tokens saturate at one accounting-period's worth so a long idle
   stretch cannot be repaid as a burst exceeding the duty cycle. *)
let token_cap = Sim_time.of_ms 30

let create ?(duty_cycle = 1.0) ~work () =
  if not (work > 0.0) then invalid_arg "Pi_app.create: work must be positive";
  if not (duty_cycle > 0.0 && duty_cycle <= 1.0) then
    invalid_arg "Pi_app.create: duty_cycle must be in (0, 1]";
  {
    total_work = work;
    duty_cycle;
    progress = { remaining = work };
    tokens = Sim_time.zero;
    start_time = None;
    finish_time = None;
  }

(* Local copies of [Sim_time.to_sec] and [Sim_time.of_sec_f] ([to_us] and
   [of_us] are the identity on the int representation, so the results are
   bit-identical); the cross-library calls would box a float on every tick
   in a [--profile dev] build, which compiles with -opaque (the shipped
   release build inlines across units). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let[@inline always] of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  let x = s *. 1e6 in
  let n = int_of_float x in
  Sim_time.of_us (if x -. float_of_int n >= 0.5 then n + 1 else n)

(* alloc: none *)
let advance t ~now:_ ~dt =
  if t.progress.remaining > 0.0 then begin
    let earned = of_sec_f (t.duty_cycle *. sec_of dt) in
    t.tokens <- Sim_time.min token_cap (Sim_time.add t.tokens earned)
  end

(* Every deferred tick added the same [earned] with the same saturation,
   and [remaining] cannot move between ticks without an execute, which
   catches up first.  For non-negative integers ([Sim_time.t] is the int
   microsecond count), [ticks] saturating additions equal one saturating
   addition of their sum. *)
(* alloc: none *)
let catch_up t ~now:_ ~dt ~ticks =
  if t.progress.remaining > 0.0 then begin
    let earned = of_sec_f (t.duty_cycle *. sec_of dt) in
    t.tokens <- Int.min token_cap (t.tokens + (ticks * earned))
  end

(* Advancing changes what [has_work] answers only when the tokens are
   spent: with tokens in hand it stays true, and a finished job ignores
   ticks. *)
(* alloc: none *)
let due t ~now ~dt =
  if t.progress.remaining > 0.0 && t.tokens <= Sim_time.zero then now + dt else Workload.never

let has_work t () = t.progress.remaining > 0.0 && Sim_time.compare t.tokens Sim_time.zero > 0

let execute t ~now ~cpu_time ~speed =
  if t.progress.remaining <= 0.0 then Sim_time.zero
  else begin
    (match t.start_time with None -> t.start_time <- Some now | Some _ -> ());
    (* Round the finishing slice up to the clock resolution, otherwise a
       residue smaller than one microsecond of work could never complete. *)
    let time_to_finish =
      Sim_time.max (Sim_time.of_us 1) (of_sec_f (t.progress.remaining /. speed))
    in
    let used = Sim_time.min cpu_time (Sim_time.min t.tokens time_to_finish) in
    t.tokens <- Sim_time.sub t.tokens used;
    t.progress.remaining <- t.progress.remaining -. (sec_of used *. speed);
    if t.progress.remaining <= 1e-9 then begin
      t.progress.remaining <- 0.0;
      match t.finish_time with
      | None -> t.finish_time <- Some (Sim_time.add now used)
      | Some _ -> ()
    end;
    used
  end

let workload t =
  Workload.make ~name:"pi-app" ~advance:(fun ~now ~dt -> advance t ~now ~dt)
    ~defer:((fun ~now ~dt -> due t ~now ~dt), fun ~now ~dt ~ticks -> catch_up t ~now ~dt ~ticks)
    ~has_work:(has_work t)
    ~execute:(fun ~now ~cpu_time ~speed -> execute t ~now ~cpu_time ~speed)
    ()

let total_work t = t.total_work
let remaining_work t = t.progress.remaining
let finished t = t.progress.remaining <= 0.0
let tokens t = t.tokens
let start_time t = t.start_time
let finish_time t = t.finish_time

let execution_time t =
  match (t.start_time, t.finish_time) with
  | Some s, Some f -> Some (Sim_time.sub f s)
  | _ -> None

let reset t =
  t.progress.remaining <- t.total_work;
  t.tokens <- Sim_time.zero;
  t.start_time <- None;
  t.finish_time <- None
