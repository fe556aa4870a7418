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
let on_cycle g ~cycle = g.cycle <- cycle

(* [on_cycle] has already seen the retiring cycle: the run reports a
   cycle before its retirements. *)
let on_retire g =
  g.retired <- g.retired + 1;
  let gap = Pipesem.retirement_gap ~last:g.last_retire ~cycle:g.cycle in
  if gap > g.widest then g.widest <- gap;
  g.last_retire <- g.cycle

let of_run ~n_stages g (r : Pipesem.lane_result) =
  let cycles = r.Pipesem.lr_stats.Pipesem.cycles in
  {
    checked = g.retired;
    max_gap = g.widest;
    bound = default_bound ~n_stages;
    outcome = r.Pipesem.lr_outcome;
    idle = (if g.retired = 0 then cycles else cycles - g.last_retire - 1);
  }

let check ?ext ?compiled ?inject ?cancel ~stop_after
    (t : Pipeline.Transform.t) =
  Obs.Span.with_span "verify.liveness" @@ fun () ->
  let g = gaps () in
  let obs =
    {
      Pipesem.no_observer with
      Pipesem.ob_cycle =
        (fun ~cycle ~running:_ _ ~dhaz:_ ~ext:_ ~tags:_ -> on_cycle g ~cycle);
      ob_retire = (fun ~cycle:_ ~lane:_ ~tag:_ ~kind:_ -> on_retire g);
    }
  in
  let c = match compiled with Some c -> c | None -> Pipesem.compile t in
  of_run ~n_stages:t.Pipeline.Transform.base.Machine.Spec.n_stages g
    (Pipesem.run_observed ?ext ?inject ?cancel ~obs ~stop_after
       (Pipesem.session c))

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
