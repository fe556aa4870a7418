module Pipesem = Pipeline.Pipesem
module SE = Pipeline.Stall_engine

(* rollback'_k of one lane, re-derived from the rollback wires
   independently of the engine's own suffix OR. *)
let rec rollback_up (s : SE.lane_signals) lane k =
  k < Array.length s.SE.l_rollback
  && (Hw.Lanes.test s.SE.l_rollback.(k) lane || rollback_up s lane (k + 1))

let step sink ~n_stages ~cycle:t ~lane ~prev ~prev_tags ~cross
    (s : SE.lane_signals) ~tags =
  let module E = Pipeline.Evidence in
  (* Across cycles t-1 -> t: the full-bit update and the tag
     discipline. *)
  if cross then begin
    let p = t - 1 in
    for j = 1 to n_stages - 1 do
      let rbup = rollback_up prev lane j in
      let stalled = Hw.Lanes.test prev.SE.l_stall.(j) lane in
      let moved = Hw.Lanes.test prev.SE.l_ue.(j - 1) lane in
      let expected = (moved || stalled) && not rbup in
      let full = Hw.Lanes.test s.SE.l_full.(j) lane in
      if full <> expected then
        E.fail sink "cycle %d: full_%d^%d is %b, the engine equation gives %b" p
          j t full expected;
      (* Tag discipline. *)
      (if stalled && Hw.Lanes.test prev.SE.l_full.(j) lane && not rbup then
         let a = prev_tags.(j).(lane) and b = tags.(j).(lane) in
         if a >= 0 && b >= 0 && a <> b then
           E.fail sink "cycle %d: stalled stage %d changed instruction %d -> %d"
             p j a b
         else if a >= 0 && b < 0 then
           E.fail sink "cycle %d: stalled stage %d lost its instruction" p j);
      if moved && not rbup then
        let a = prev_tags.(j - 1).(lane) and b = tags.(j).(lane) in
        if a >= 0 && b >= 0 && a <> b then
          E.fail sink
            "cycle %d: instruction %d left stage %d but %d arrived in %d" p a
            (j - 1) b j
        else if a >= 0 && b < 0 then
          E.fail sink "cycle %d: instruction from stage %d vanished" p (j - 1)
    done
  end;
  (* Within cycle t. *)
  if not (Hw.Lanes.test s.SE.l_full.(0) lane) then
    E.fail sink "cycle %d: full_0 is low" t;
  for k = 0 to n_stages - 1 do
    let ue = Hw.Lanes.test s.SE.l_ue.(k) lane in
    let full = Hw.Lanes.test s.SE.l_full.(k) lane in
    let stall = Hw.Lanes.test s.SE.l_stall.(k) lane in
    let rollback = Hw.Lanes.test s.SE.l_rollback.(k) lane in
    if ue && not full then E.fail sink "cycle %d: ue_%d in an empty stage" t k;
    if ue && stall then E.fail sink "cycle %d: ue_%d in a stalled stage" t k;
    if rollback && not full then
      E.fail sink "cycle %d: rollback_%d in an empty stage" t k;
    if rollback && stall then
      E.fail sink "cycle %d: rollback_%d in a stalled stage" t k;
    if
      k < n_stages - 1
      && Hw.Lanes.test s.SE.l_stall.(k + 1) lane
      && full && not stall
    then
      E.fail sink "cycle %d: stall_%d does not propagate to stage %d" t (k + 1) k
  done

let check ~n_stages records =
  let sink = Pipeline.Evidence.sink () in
  ignore
    (List.fold_left
       (fun (t, prev) r ->
         let s, tags = Pipesem.record_words r in
         let prev, prev_tags, cross =
           match prev with Some (p, pt) -> (p, pt, true) | None -> (s, tags, false)
         in
         step sink ~n_stages ~cycle:t ~lane:0 ~prev ~prev_tags ~cross s ~tags;
         (t + 1, Some (s, tags)))
       (0, None) records);
  Pipeline.Evidence.result sink

let check_exn ~n_stages records =
  match check ~n_stages records with
  | Ok () -> ()
  | Error e ->
    failwith
      (Printf.sprintf "stall-engine invariants violated:\n%s"
         (String.concat "\n" e.Pipeline.Evidence.messages))
