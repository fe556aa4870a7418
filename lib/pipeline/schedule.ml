type table = int array array

let of_trace ~n_stages records =
  let cycles = List.length records in
  let table = Array.make_matrix (cycles + 1) n_stages 0 in
  List.iteri
    (fun t (r : Pipesem.cycle_record) ->
      for k = 0 to n_stages - 1 do
        table.(t + 1).(k) <-
          (if not r.ue.(k) then table.(t).(k)
           else if k = 0 then table.(t).(0) + 1
           else table.(t).(k - 1))
      done)
    records;
  table

let has_rollback records =
  List.exists
    (fun (r : Pipesem.cycle_record) -> Array.exists (fun b -> b) r.rollback)
    records

(* Lemma 1 on one cycle [t] of one lane: the three properties and the
   tag cross-check against [row] = I(., t), which then advances to
   I(., t + 1).  Messages come in the order the properties are listed:
   property 1 for every stage, then properties 2 and 3, then tags. *)
let lemma1_step sink ~cycle:t ~lane ~row (s : Stall_engine.lane_signals) ~tags =
  let n = Array.length row in
  for k = 0 to n - 1 do
    (* Property 1: I(k,T+1) by the inductive definition (I(k-1,T) on
       ue for k>0); the lemma claims that equals I(k,T)+1, and no
       change otherwise. *)
    let ue = Hw.Lanes.test s.Stall_engine.l_ue.(k) lane in
    let next =
      if not ue then row.(k) else if k = 0 then row.(0) + 1 else row.(k - 1)
    in
    let expected = if ue then row.(k) + 1 else row.(k) in
    if next <> expected then
      Evidence.fail sink
        "cycle %d stage %d: property 1 violated (I went %d -> %d, ue=%b)" t k
        row.(k) next ue
  done;
  (* Properties 2 and 3 are about the state *during* cycle t. *)
  for k = 1 to n - 1 do
    let d = row.(k - 1) - row.(k) in
    if d <> 0 && d <> 1 then
      Evidence.fail sink "cycle %d: I(%d)=%d and I(%d)=%d differ by %d" t
        (k - 1) row.(k - 1) k row.(k) d;
    let full = Hw.Lanes.test s.Stall_engine.l_full.(k) lane in
    if full = (d = 0) then
      Evidence.fail sink "cycle %d stage %d: full=%b but I-difference is %d" t
        k full d
  done;
  (* Tag cross-validation. *)
  for k = 0 to n - 1 do
    let tag = tags.(k).(lane) in
    if tag >= 0 && Hw.Lanes.test s.Stall_engine.l_full.(k) lane && tag <> row.(k)
    then Evidence.fail sink "cycle %d stage %d: tag %d but I(k,T)=%d" t k tag row.(k)
  done;
  for k = n - 1 downto 0 do
    if Hw.Lanes.test s.Stall_engine.l_ue.(k) lane then
      row.(k) <- (if k = 0 then row.(0) + 1 else row.(k - 1))
  done

let check_lemma1 ~n_stages records =
  if has_rollback records then
    Error
      {
        Evidence.total = 1;
        messages =
          [ "trace contains rollbacks; the scheduling-function lemmas apply \
             to rollback-free execution (paper §6.1)" ];
      }
  else begin
    let sink = Evidence.sink () in
    let row = Array.make n_stages 0 in
    List.iteri
      (fun t r ->
        let s, tags = Pipesem.record_words r in
        lemma1_step sink ~cycle:t ~lane:0 ~row s ~tags)
      records;
    Evidence.result sink
  end
