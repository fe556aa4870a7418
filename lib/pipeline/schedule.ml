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
    let table = of_trace ~n_stages records in
    let errors = Evidence.sink () in
    let fail fmt = Evidence.fail errors fmt in
    List.iteri
      (fun t (r : Pipesem.cycle_record) ->
        for k = 0 to n_stages - 1 do
          (* Property 1: the table was built by the inductive
             definition (I(k,T) = I(k-1,T-1) on ue for k>0); the lemma
             claims that equals I(k,T-1)+1, and no change otherwise. *)
          let expected =
            if r.ue.(k) then table.(t).(k) + 1 else table.(t).(k)
          in
          if table.(t + 1).(k) <> expected then
            fail "cycle %d stage %d: property 1 violated (I went %d -> %d, ue=%b)"
              t k table.(t).(k) table.(t + 1).(k) r.ue.(k)
        done;
        (* Properties 2 and 3 are about the state *during* cycle t. *)
        for k = 1 to n_stages - 1 do
          let d = table.(t).(k - 1) - table.(t).(k) in
          if d <> 0 && d <> 1 then
            fail "cycle %d: I(%d)=%d and I(%d)=%d differ by %d" t (k - 1)
              table.(t).(k - 1)
              k
              table.(t).(k)
              d;
          let empty = not r.full.(k) in
          if empty <> (d = 0) then
            fail "cycle %d stage %d: full=%b but I-difference is %d" t k
              r.full.(k) d
        done;
        (* Tag cross-validation. *)
        for k = 0 to n_stages - 1 do
          match r.tags.(k) with
          | Some tag when r.full.(k) ->
            if tag <> table.(t).(k) then
              fail "cycle %d stage %d: tag %d but I(k,T)=%d" t k tag
                table.(t).(k)
          | Some _ | None -> ()
        done)
      records;
    Evidence.result errors
  end
