let source_label (s : Transform.source) =
  match s.Transform.src_kind with
  | Transform.From_writer -> Printf.sprintf "Din@%d" s.Transform.src_stage
  | Transform.From_chain head -> Printf.sprintf "%s@%d" head s.Transform.src_stage
  | Transform.No_source -> Printf.sprintf "stall@%d" s.Transform.src_stage

type pending = {
  p_record : Pipesem.cycle_record;
  p_ops : string option array;
}

type t = {
  hazard : Obs.Hazard.t;
  mutable sig_ops : string option array;
  mutable sig_wins : (string * int * string) list;
      (* rule label, consumer stage, winning source *)
  mutable buffered : pending option;
  mutable retired_now : int;
  mutable cbs : Pipesem.callbacks;
}

let flush t =
  match t.buffered with
  | None -> ()
  | Some p ->
    let r = p.p_record in
    Obs.Hazard.observe t.hazard ~full:r.Pipesem.full ~stall:r.Pipesem.stall
      ~dhaz:r.Pipesem.dhaz ~ext:r.Pipesem.ext ~rollback:r.Pipesem.rollback
      ~ue:r.Pipesem.ue
      ~operand:(fun k -> p.p_ops.(k))
      ~retired:t.retired_now;
    t.retired_now <- 0;
    t.buffered <- None

let create ?(base = Pipesem.no_callbacks) (tr : Transform.t) =
  let n = tr.Transform.machine.Machine.Spec.n_stages in
  let t =
    {
      hazard = Obs.Hazard.create ~n_stages:n;
      sig_ops = Array.make n None;
      sig_wins = [];
      buffered = None;
      retired_now = 0;
      cbs = Pipesem.no_callbacks;
    }
  in
  let on_signals ~cycle lookup =
    base.Pipesem.on_signals ~cycle lookup;
    let bool_of name =
      match lookup name with
      | Some v -> Hw.Bitvec.to_bool v
      | None -> false
    in
    let ops = Array.make n None in
    let wins = ref [] in
    List.iter
      (fun (r : Transform.rule) ->
        let k = r.Transform.consumer_stage in
        (* First rule (in inventory order) whose interlock fired: the
           operand the stage's dhaz_k is attributed to. *)
        if ops.(k) = None && bool_of r.Transform.dhaz_signal then
          ops.(k) <- Some r.Transform.rule_label;
        if r.Transform.sources <> [] then begin
          let winner =
            match
              List.find_opt
                (fun (s : Transform.source) -> bool_of s.Transform.hit_signal)
                r.Transform.sources
            with
            | Some s -> source_label s
            | None -> "reg"
          in
          wins := (r.Transform.rule_label, k, winner) :: !wins
        end)
      tr.Transform.rules;
    t.sig_ops <- ops;
    t.sig_wins <- !wins
  in
  let on_cycle record =
    base.Pipesem.on_cycle record;
    flush t;
    (* Commit the forwarding wins of consuming stages: the operand was
       actually read only when the consumer updates this cycle. *)
    List.iter
      (fun (rule, k, source) ->
        if record.Pipesem.ue.(k) then Obs.Hazard.record_hit t.hazard ~rule ~source)
      t.sig_wins;
    t.buffered <- Some { p_record = record; p_ops = t.sig_ops }
  in
  let on_edge record state = base.Pipesem.on_edge record state in
  let on_retire ~tag ~kind state =
    base.Pipesem.on_retire ~tag ~kind state;
    t.retired_now <- t.retired_now + 1
  in
  t.cbs <- { Pipesem.on_signals; on_cycle; on_edge; on_retire };
  t

let callbacks t = t.cbs

let finalize t =
  flush t;
  Obs.Hazard.summary t.hazard

let run ?ext ?compiled ~stop_after tr =
  let t = create tr in
  let c = match compiled with Some c -> c | None -> Pipesem.compile tr in
  let result = Pipesem.run_compiled ?ext ~callbacks:t.cbs ~stop_after c in
  (result, finalize t)
