type signals = {
  full : bool array;
  stall : bool array;
  rollback : bool array;
  rollback_up : bool array;
  ue : bool array;
}

let compute ~fullb ~dhaz ~ext ~mispredict =
  let n = Array.length fullb in
  let full = Array.init n (fun k -> k = 0 || fullb.(k)) in
  let stall = Array.make n false in
  for k = n - 1 downto 0 do
    let below = if k = n - 1 then false else stall.(k + 1) in
    stall.(k) <- (dhaz.(k) || ext.(k) || below) && full.(k)
  done;
  let rollback =
    Array.init n (fun k ->
        full.(k) && (not stall.(k)) && mispredict ~stage:k ~stalled:stall.(k))
  in
  let rollback_up = Array.make n false in
  for k = n - 1 downto 0 do
    let above = if k = n - 1 then false else rollback_up.(k + 1) in
    rollback_up.(k) <- rollback.(k) || above
  done;
  let ue =
    Array.init n (fun k -> full.(k) && (not stall.(k)) && not rollback_up.(k))
  in
  { full; stall; rollback; rollback_up; ue }

let next_fullb s =
  let n = Array.length s.full in
  Array.init n (fun k ->
      if k = 0 then true
      else (s.ue.(k - 1) || s.stall.(k)) && not s.rollback_up.(k))

(* Lane-parallel mirror of [compute]/[next_fullb]: every array entry
   is a packed word over the lanes in [mask] (bit l = lane l).  One
   word op per stage serves the whole pack.  [mispredict.(k)] is the
   raw per-lane misprediction word of stage k (the OR of that stage's
   speculation comparators); the [land lnot stall] conjunct below is
   the scalar path's [not stalled] guard.  All outputs are masked and
   written in place: the cycle driver computes every cycle into the
   same record. *)
type lane_signals = {
  l_full : int array;
  l_stall : int array;
  l_rollback : int array;
  l_rollback_up : int array;
  l_ue : int array;
}

let lane_signals ~n_stages =
  let z () = Array.make n_stages 0 in
  { l_full = z (); l_stall = z (); l_rollback = z (); l_rollback_up = z ();
    l_ue = z () }

let compute_lanes s ~mask ~fullb ~dhaz ~ext ~mispredict =
  let n = Array.length fullb in
  let full = s.l_full and stall = s.l_stall and rollback = s.l_rollback in
  let rollback_up = s.l_rollback_up in
  for k = 0 to n - 1 do
    full.(k) <- (if k = 0 then mask else fullb.(k) land mask)
  done;
  for k = n - 1 downto 0 do
    let below = if k = n - 1 then 0 else stall.(k + 1) in
    stall.(k) <- (dhaz.(k) lor ext.(k) lor below) land full.(k)
  done;
  for k = n - 1 downto 0 do
    rollback.(k) <- full.(k) land lnot stall.(k) land mispredict.(k);
    let above = if k = n - 1 then 0 else rollback_up.(k + 1) in
    rollback_up.(k) <- rollback.(k) lor above
  done;
  for k = 0 to n - 1 do
    s.l_ue.(k) <- full.(k) land lnot stall.(k) land lnot rollback_up.(k)
  done

let next_fullb_lanes ~mask s fullb =
  for k = 0 to Array.length fullb - 1 do
    fullb.(k) <-
      (if k = 0 then mask
       else
         (s.l_ue.(k - 1) lor s.l_stall.(k)) land lnot s.l_rollback_up.(k)
         land mask)
  done

let exprs ~n_stages ~dhaz ~mispredict =
  Obs.Span.with_span "stall_engine.exprs" @@ fun () ->
  let open Hw.Expr in
  let full k = if k = 0 then tru else input (Transform.full_signal k) 1 in
  let ext k = input (Transform.ext_signal k) 1 in
  let stall_name k = Printf.sprintf "$stall_%d" k in
  let rb_name k = Printf.sprintf "$rollback_%d" k in
  let rbp_name k = Printf.sprintf "$rollbackp_%d" k in
  let ue_name k = Printf.sprintf "$ue_%d" k in
  let fullb_next_name k = Printf.sprintf "$fullb_next_%d" k in
  let defs = ref [] in
  let def name e = defs := (name, e) :: !defs in
  for k = n_stages - 1 downto 0 do
    let below =
      if k = n_stages - 1 then fls else input (stall_name (k + 1)) 1
    in
    def (stall_name k)
      (( &&: ) (( ||: ) (( ||: ) (dhaz k) (ext k)) below) (full k))
  done;
  for k = 0 to n_stages - 1 do
    def (rb_name k)
      (( &&: ) (full k) (( &&: ) (not_ (input (stall_name k) 1)) (mispredict k)))
  done;
  for k = n_stages - 1 downto 0 do
    let above =
      if k = n_stages - 1 then fls else input (rbp_name (k + 1)) 1
    in
    def (rbp_name k) (( ||: ) (input (rb_name k) 1) above)
  done;
  for k = 0 to n_stages - 1 do
    def (ue_name k)
      (( &&: ) (full k)
         (( &&: )
            (not_ (input (stall_name k) 1))
            (not_ (input (rbp_name k) 1))))
  done;
  for s = 1 to n_stages - 1 do
    def (fullb_next_name s)
      (( &&: )
         (( ||: ) (input (ue_name (s - 1)) 1) (input (stall_name s) 1))
         (not_ (input (rbp_name s) 1)))
  done;
  List.rev !defs
