module Pipesem = Pipeline.Pipesem

type report = {
  checked : int;
  max_gap : int;
  bound : int;
  outcome : Pipesem.outcome;
  idle : int;
}

(* The drivers stop a run at its first gap over the bound, so a run
   that completed is within it. *)
let ok r = r.outcome = Pipesem.Completed
let default_bound = Pipesem.liveness_bound

type gaps = {
  mutable cycle : int;  (* the cycle in progress *)
  mutable last_retire : int;
  mutable retired : int;
  mutable widest : int;
}

let gaps () = { cycle = 0; last_retire = 0; retired = 0; widest = 0 }
let on_cycle g (r : Pipesem.cycle_record) = g.cycle <- r.Pipesem.cycle

(* [on_cycle] has already seen the retiring cycle: the run reports a
   cycle before its retirements. *)
let on_retire g =
  g.retired <- g.retired + 1;
  let gap = Pipesem.retirement_gap ~last:g.last_retire ~cycle:g.cycle in
  if gap > g.widest then g.widest <- gap;
  g.last_retire <- g.cycle

let of_run ~n_stages g (result : Pipesem.result) =
  let cycles = result.Pipesem.stats.Pipesem.cycles in
  {
    checked = g.retired;
    max_gap = g.widest;
    bound = default_bound ~n_stages;
    outcome = result.Pipesem.outcome;
    idle = (if g.retired = 0 then cycles else cycles - g.last_retire - 1);
  }

let check ?ext ?compiled ?inject ?cancel ~stop_after
    (t : Pipeline.Transform.t) =
  Obs.Span.with_span "verify.liveness" @@ fun () ->
  let g = gaps () in
  let callbacks =
    {
      Pipesem.no_callbacks with
      Pipesem.on_cycle = on_cycle g;
      on_retire = (fun ~tag:_ ~kind:_ _ -> on_retire g);
    }
  in
  let result =
    let c = match compiled with Some c -> c | None -> Pipesem.compile t in
    Pipesem.run_compiled ?ext ~callbacks ?inject ?cancel ~stop_after c
  in
  of_run ~n_stages:t.Pipeline.Transform.base.Machine.Spec.n_stages g result

let outcome_label = function
  | Pipesem.Completed -> "completed"
  | Pipesem.Deadlocked -> "deadlocked"
  | Pipesem.Out_of_cycles -> "out of cycles"

(* A run that never completed has no meaningful largest gap: the gap
   still open at its end is what stopped it. *)
let stuck r =
  Printf.sprintf "run %s after %d retirements, none in the last %d cycles"
    (outcome_label r.outcome) r.checked r.idle

let evidence r =
  if ok r then
    Printf.sprintf "max inter-retirement gap %d <= bound %d" r.max_gap r.bound
  else stuck r

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf
      "liveness: %d retirements, max inter-retirement gap %d cycles (bound \
       %d): ok@."
      r.checked r.max_gap r.bound
  else Format.fprintf ppf "liveness: %s: VIOLATED@." (stuck r)
