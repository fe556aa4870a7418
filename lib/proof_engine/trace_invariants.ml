module Pipesem = Pipeline.Pipesem

let rollback_up (r : Pipesem.cycle_record) k =
  let n = Array.length r.Pipesem.rollback in
  let rec go i = i < n && (r.Pipesem.rollback.(i) || go (i + 1)) in
  go k

let check ~n_stages records =
  let errors = Pipeline.Evidence.sink () in
  let fail fmt = Pipeline.Evidence.fail errors fmt in
  let arr = Array.of_list records in
  Array.iteri
    (fun t (r : Pipesem.cycle_record) ->
      if not r.Pipesem.full.(0) then fail "cycle %d: full_0 is low" t;
      for k = 0 to n_stages - 1 do
        if r.Pipesem.ue.(k) && not r.Pipesem.full.(k) then
          fail "cycle %d: ue_%d in an empty stage" t k;
        if r.Pipesem.ue.(k) && r.Pipesem.stall.(k) then
          fail "cycle %d: ue_%d in a stalled stage" t k;
        if r.Pipesem.rollback.(k) && not r.Pipesem.full.(k) then
          fail "cycle %d: rollback_%d in an empty stage" t k;
        if r.Pipesem.rollback.(k) && r.Pipesem.stall.(k) then
          fail "cycle %d: rollback_%d in a stalled stage" t k;
        if
          k < n_stages - 1
          && r.Pipesem.stall.(k + 1)
          && r.Pipesem.full.(k)
          && not r.Pipesem.stall.(k)
        then fail "cycle %d: stall_%d does not propagate to stage %d" t (k + 1) k
      done;
      if t + 1 < Array.length arr then begin
        let nxt = arr.(t + 1) in
        for s = 1 to n_stages - 1 do
          let expected =
            (r.Pipesem.ue.(s - 1) || r.Pipesem.stall.(s))
            && not (rollback_up r s)
          in
          if nxt.Pipesem.full.(s) <> expected then
            fail "cycle %d: full_%d^%d is %b, the engine equation gives %b" t s
              (t + 1)
              nxt.Pipesem.full.(s)
              expected;
          (* Tag discipline. *)
          if r.Pipesem.stall.(s) && r.Pipesem.full.(s) && not (rollback_up r s)
          then begin
            match (r.Pipesem.tags.(s), nxt.Pipesem.tags.(s)) with
            | Some a, Some b when a <> b ->
              fail "cycle %d: stalled stage %d changed instruction %d -> %d" t
                s a b
            | Some _, None ->
              fail "cycle %d: stalled stage %d lost its instruction" t s
            | Some _, Some _ | None, _ -> ()
          end;
          if r.Pipesem.ue.(s - 1) && not (rollback_up r s) then
            match (r.Pipesem.tags.(s - 1), nxt.Pipesem.tags.(s)) with
            | Some a, Some b when a <> b ->
              fail "cycle %d: instruction %d left stage %d but %d arrived in %d"
                t a (s - 1) b s
            | Some _, None ->
              fail "cycle %d: instruction from stage %d vanished" t (s - 1)
            | None, _ | Some _, Some _ -> ()
        done
      end)
    arr;
  Pipeline.Evidence.result errors

let check_exn ~n_stages records =
  match check ~n_stages records with
  | Ok () -> ()
  | Error e ->
    failwith
      (Printf.sprintf "stall-engine invariants violated:\n%s"
         (String.concat "\n" e.Pipeline.Evidence.messages))
