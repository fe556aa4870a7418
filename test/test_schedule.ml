(* The scheduling function I(k,T) and Lemma 1 (paper §6.1). *)

module P = Pipeline.Pipesem
module S = Pipeline.Schedule

let record_trace tr ~stop_after =
  let records = ref [] in
  let callbacks =
    { P.no_callbacks with P.on_cycle = (fun r -> records := r :: !records) }
  in
  ignore (P.run ~callbacks ~stop_after tr);
  List.rev !records

let toy_trace () =
  record_trace (Core.Toy.transform ~program:Core.Toy.default_program ())
    ~stop_after:6

let test_table_shape () =
  let trace = toy_trace () in
  let table = S.of_trace ~n_stages:3 trace in
  Alcotest.(check int) "rows" (List.length trace + 1) (Array.length table);
  Alcotest.(check (array int)) "starts at zero" [| 0; 0; 0 |] table.(0)

let test_inductive_definition () =
  let trace = toy_trace () in
  let table = S.of_trace ~n_stages:3 trace in
  (* In a toy run with no stalls the schedule is the textbook diagonal:
     I(k, T) = max 0 (T - k) until the drain. *)
  List.iteri
    (fun t (r : P.cycle_record) ->
      ignore r;
      if t <= 3 then
        for k = 0 to 2 do
          Alcotest.(check int)
            (Printf.sprintf "I(%d,%d)" k t)
            (max 0 (t - k))
            table.(t).(k)
        done)
    trace

let test_lemma1_holds () =
  let trace = toy_trace () in
  match S.check_lemma1 ~n_stages:3 trace with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "lemma 1 failed: %s"
      (String.concat "; " e.Pipeline.Evidence.messages)

let test_lemma1_on_dlx_with_stalls () =
  let p = Dlx.Progs.hazard_load_use 8 in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p)
  in
  let trace = record_trace tr ~stop_after:p.Dlx.Progs.dyn_instructions in
  (* Some stalls definitely happened... *)
  Alcotest.(check bool) "stalls occurred" true
    (List.exists (fun (r : P.cycle_record) -> r.P.stall.(0)) trace);
  (* ...and the lemma still holds. *)
  match S.check_lemma1 ~n_stages:5 trace with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "lemma 1 failed: %s"
      (String.concat "; " e.Pipeline.Evidence.messages)

let test_rollback_trace_rejected () =
  let p = Dlx.Progs.overflow_trap in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data
      (Dlx.Seq_dlx.With_interrupts { sisr = 8 })
      ~program:(Dlx.Progs.program p)
  in
  let trace = record_trace tr ~stop_after:p.Dlx.Progs.dyn_instructions in
  Alcotest.(check bool) "has rollback" true (S.has_rollback trace);
  match S.check_lemma1 ~n_stages:5 trace with
  | Error { Pipeline.Evidence.messages = [ _ ]; total = 1 } -> ()
  | Ok () -> Alcotest.fail "should refuse rollback traces"
  | Error _ -> Alcotest.fail "single explanatory message expected"

let test_detects_corrupt_trace () =
  (* Damage a recorded trace: claim a ue in an empty stage. *)
  let trace = toy_trace () in
  let damaged =
    List.mapi
      (fun i (r : P.cycle_record) ->
        if i = 1 then begin
          let ue = Array.copy r.P.ue in
          ue.(2) <- true;
          (* stage 2 is empty in cycle 1 *)
          { r with P.ue }
        end
        else r)
      trace
  in
  match S.check_lemma1 ~n_stages:3 damaged with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corruption not detected"

(* A toy run whose fetch stage is held by an external stall for most of
   its cycles: long enough to damage 40 of them. *)
let stalled_toy_trace () =
  let ext ~stage ~cycle = stage = 0 && cycle >= 2 && cycle < 60 in
  let records = ref [] in
  let callbacks =
    { P.no_callbacks with P.on_cycle = (fun r -> records := r :: !records) }
  in
  ignore
    (P.run ~ext ~callbacks ~stop_after:6
       (Core.Toy.transform ~program:Core.Toy.default_program ()));
  List.rev !records

(* Give stage 0 a wrong tag in each of [cycles]: one tag cross-check
   violation per damaged cycle, and nothing else (the table is built
   from [ue] alone). *)
let damage_tags trace cycles =
  List.mapi
    (fun t (r : P.cycle_record) ->
      if List.mem t cycles then begin
        let tags = Array.copy r.P.tags in
        tags.(0) <- Some (1000 + t);
        { r with P.tags }
      end
      else r)
    trace

let test_lemma1_cap () =
  let trace = stalled_toy_trace () in
  (match S.check_lemma1 ~n_stages:3 trace with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "undamaged trace: %s"
      (String.concat "; " e.Pipeline.Evidence.messages));
  let table = S.of_trace ~n_stages:3 trace in
  let message t =
    Printf.sprintf "cycle %d stage 0: tag %d but I(k,T)=%d" t (1000 + t)
      table.(t).(0)
  in
  (* Three violations: exactly their messages, no tail. *)
  let few = [ 4; 9; 30 ] in
  (match S.check_lemma1 ~n_stages:3 (damage_tags trace few) with
  | Error { Pipeline.Evidence.total; messages } ->
    Alcotest.(check int) "3 counted" 3 total;
    Alcotest.(check (list string)) "3 messages" (List.map message few) messages
  | Ok () -> Alcotest.fail "3 damaged cycles not detected");
  (* Forty violations: every one counted, the first 16 in cycle order,
     then one summary entry. *)
  let many = List.init 40 (fun i -> 1 + i) in
  Alcotest.(check bool) "trace long enough" true (List.length trace > 41);
  match S.check_lemma1 ~n_stages:3 (damage_tags trace many) with
  | Error { Pipeline.Evidence.total; messages } ->
    Alcotest.(check int) "40 counted" 40 total;
    Alcotest.(check (list string))
      "first 16, then the rest counted"
      (List.map message (List.filteri (fun i _ -> i < 16) many)
      @ [ "… and 24 more" ])
      messages
  | Ok () -> Alcotest.fail "40 damaged cycles not detected"

let () =
  Alcotest.run "schedule"
    [
      ( "scheduling function",
        [
          Alcotest.test_case "table shape" `Quick test_table_shape;
          Alcotest.test_case "inductive definition" `Quick
            test_inductive_definition;
          Alcotest.test_case "lemma 1 (toy)" `Quick test_lemma1_holds;
          Alcotest.test_case "lemma 1 (dlx with stalls)" `Quick
            test_lemma1_on_dlx_with_stalls;
          Alcotest.test_case "rollback traces rejected" `Quick
            test_rollback_trace_rejected;
          Alcotest.test_case "detects corruption" `Quick
            test_detects_corrupt_trace;
          Alcotest.test_case "capped messages, every violation counted"
            `Quick test_lemma1_cap;
        ] );
    ]
