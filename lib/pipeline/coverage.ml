type rule_coverage = {
  cov_label : string;
  sources_total : int;
  sources_hit : int list;
  default_taken : bool;
  dhaz_fired : bool;
}

type stage_coverage = {
  cov_stage : int;
  stalled : bool;
  bubbled : bool;
  rolled_back : bool;
}

type t = {
  rules : rule_coverage list;
  stages : stage_coverage list;
  cycles_observed : int;
}

type rule_acc = {
  mutable hit_stages : int list;
  mutable default_seen : bool;
  mutable dhaz_seen : bool;
}

let collector (tr : Transform.t) =
  let n = tr.Transform.base.Machine.Spec.n_stages in
  let rule_accs =
    List.map
      (fun (r : Transform.rule) ->
        (r, { hit_stages = []; default_seen = false; dhaz_seen = false }))
      tr.Transform.rules
  in
  let stalled = Array.make n false in
  let bubbled = Array.make n false in
  let rolled = Array.make n false in
  let cycles = ref 0 in
  let on_signals ~cycle:_ lookup =
    let bit name =
      match lookup name with
      | Some v -> Hw.Bitvec.to_bool v
      | None -> false
    in
    List.iter
      (fun ((r : Transform.rule), acc) ->
        if bit (Transform.full_signal r.Transform.consumer_stage) then begin
          let top =
            List.find_opt
              (fun (s : Transform.source) -> bit s.Transform.hit_signal)
              r.Transform.sources
          in
          (match top with
          | Some s ->
            if not (List.mem s.Transform.src_stage acc.hit_stages) then
              acc.hit_stages <- s.Transform.src_stage :: acc.hit_stages
          | None -> acc.default_seen <- true);
          if bit r.Transform.dhaz_signal then acc.dhaz_seen <- true
        end)
      rule_accs
  in
  let on_cycle (rec_ : Pipesem.cycle_record) =
    incr cycles;
    for k = 0 to n - 1 do
      if rec_.Pipesem.stall.(k) then stalled.(k) <- true;
      if rec_.Pipesem.rollback.(k) then rolled.(k) <- true;
      if
        (not rec_.Pipesem.full.(k))
        && k > 0
        && Array.exists (fun b -> b)
             (Array.sub rec_.Pipesem.full (k + 1) (n - k - 1))
      then bubbled.(k) <- true
    done
  in
  let callbacks =
    { Pipesem.no_callbacks with Pipesem.on_signals; on_cycle }
  in
  let read () =
    {
      rules =
        List.map
          (fun ((r : Transform.rule), acc) ->
            {
              cov_label = r.Transform.rule_label;
              sources_total = List.length r.Transform.sources;
              sources_hit = List.sort compare acc.hit_stages;
              default_taken = acc.default_seen;
              dhaz_fired = acc.dhaz_seen;
            })
          rule_accs;
      stages =
        List.init n (fun k ->
            {
              cov_stage = k;
              stalled = stalled.(k);
              bubbled = bubbled.(k);
              rolled_back = rolled.(k);
            });
      cycles_observed = !cycles;
    }
  in
  (callbacks, read)

let measure ?ext ?compiled ~stop_after tr =
  let callbacks, read = collector tr in
  let c = match compiled with Some c -> c | None -> Pipesem.compile tr in
  ignore (Pipesem.run_compiled ?ext ~callbacks ~stop_after c);
  read ()

let merge a b =
  if
    List.length a.rules <> List.length b.rules
    || List.length a.stages <> List.length b.stages
  then invalid_arg "Coverage.merge: different shapes";
  {
    rules =
      List.map2
        (fun ra rb ->
          if ra.cov_label <> rb.cov_label then
            invalid_arg "Coverage.merge: different rules"
          else
            {
              ra with
              sources_hit =
                List.sort_uniq compare (ra.sources_hit @ rb.sources_hit);
              default_taken = ra.default_taken || rb.default_taken;
              dhaz_fired = ra.dhaz_fired || rb.dhaz_fired;
            })
        a.rules b.rules;
    stages =
      List.map2
        (fun sa sb ->
          {
            sa with
            stalled = sa.stalled || sb.stalled;
            bubbled = sa.bubbled || sb.bubbled;
            rolled_back = sa.rolled_back || sb.rolled_back;
          })
        a.stages b.stages;
    cycles_observed = a.cycles_observed + b.cycles_observed;
  }

let holes t =
  List.concat_map
    (fun r ->
      (if List.length r.sources_hit < r.sources_total then
         [
           Printf.sprintf
             "operand %s: only %d of %d forwarding sources exercised (%s)"
             r.cov_label
             (List.length r.sources_hit)
             r.sources_total
             (String.concat ","
                (List.map string_of_int r.sources_hit));
         ]
       else [])
      @ (if not r.default_taken then
           [ Printf.sprintf "operand %s: the no-hit register read never occurred" r.cov_label ]
         else [])
      @
      if not r.dhaz_fired then
        [ Printf.sprintf "operand %s: the data-hazard interlock never fired" r.cov_label ]
      else [])
    t.rules

let full t = holes t = []

let pp ppf t =
  Format.fprintf ppf "coverage over %d cycles:@." t.cycles_observed;
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  operand %-10s sources %d/%d (%s)  default %b  dhaz %b@."
        r.cov_label
        (List.length r.sources_hit)
        r.sources_total
        (String.concat "," (List.map string_of_int r.sources_hit))
        r.default_taken r.dhaz_fired)
    t.rules;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  stage %d: stalled %b  bubbled %b  rolled back %b@." s.cov_stage
        s.stalled s.bubbled s.rolled_back)
    t.stages
