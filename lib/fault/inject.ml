module Pipesem = Pipeline.Pipesem
module Stall_engine = Pipeline.Stall_engine

(* Re-derive the wires downstream of a mutated one, mirroring the
   equations of {!Pipeline.Stall_engine}: the fault is a single bad
   wire feeding otherwise healthy logic.  Injected runs have one lane,
   so every control word is 0 or 1. *)
let rederive ~full ~stall ~rollback =
  let n = Array.length full in
  let rollback_up = Array.make n 0 in
  let acc = ref 0 in
  for k = n - 1 downto 0 do
    acc := !acc lor rollback.(k);
    rollback_up.(k) <- !acc
  done;
  let ue =
    Array.init n (fun k -> full.(k) land lnot stall.(k) land lnot rollback_up.(k))
  in
  {
    Stall_engine.l_full = full;
    l_stall = stall;
    l_rollback = rollback;
    l_rollback_up = rollback_up;
    l_ue = ue;
  }

let build ?(cancel = Exec.Cancel.never) (fault : Mutate.fault) =
  match fault with
  | Mutate.Stuck_hit _ | Mutate.Drop_dhaz _ | Mutate.Mux_swap _ -> None
  | Mutate.Stuck_wire { wire = Mutate.Full; stage; value } ->
    Some
      {
        Pipesem.no_injection with
        Pipesem.inj_fullb =
          (fun ~cycle:_ fullb ->
            let f = Array.copy fullb in
            f.(stage) <- Bool.to_int value;
            f);
      }
  | Mutate.Stuck_wire { wire; stage; value } ->
    let perturb (s : Stall_engine.lane_signals) =
      let full = Array.copy s.Stall_engine.l_full in
      let stall = Array.copy s.Stall_engine.l_stall in
      let rollback = Array.copy s.Stall_engine.l_rollback in
      let value = Bool.to_int value in
      match wire with
      | Mutate.Full -> assert false
      | Mutate.Stall ->
        stall.(stage) <- value;
        rederive ~full ~stall ~rollback
      | Mutate.Rollback ->
        rollback.(stage) <- value;
        rederive ~full ~stall ~rollback
      | Mutate.Update_enable ->
        (* The fault sits on the derived wire itself: nothing is
           downstream of [ue_k] but the clock enables and the next
           full bits, both of which read the mutated record. *)
        let s = rederive ~full ~stall ~rollback in
        s.Stall_engine.l_ue.(stage) <- value;
        s
    in
    Some
      {
        Pipesem.no_injection with
        Pipesem.inj_compute =
          (fun ~cycle:_ ~compute ~dhaz -> perturb (compute ~dhaz));
      }
  | Mutate.Transient_flip { register; bit; at_cycle } ->
    Some
      {
        Pipesem.no_injection with
        Pipesem.inj_edge =
          (fun ~cycle state ->
            if cycle = at_cycle then
              let v = Machine.State.get_scalar state register in
              let mask =
                Hw.Bitvec.shift_left (Hw.Bitvec.one (Hw.Bitvec.width v)) bit
              in
              Machine.State.set_scalar state register (Hw.Bitvec.logxor v mask));
      }
  | Mutate.Hang { at_cycle } ->
    Some
      {
        Pipesem.no_injection with
        Pipesem.inj_compute =
          (fun ~cycle ~compute ~dhaz ->
            if cycle >= at_cycle then
              while true do
                Exec.Cancel.check cancel;
                Domain.cpu_relax ()
              done;
            compute ~dhaz);
      }

let injection_of_mutant ?cancel (m : Mutate.mutant) =
  build ?cancel m.Mutate.mut_fault
