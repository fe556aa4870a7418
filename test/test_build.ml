(* The machine builder DSL: it must produce exactly the machines one
   writes by hand. *)

module B = Machine.Build
module E = Hw.Expr

let bv ~width v = Hw.Bitvec.make ~width v

(* toy3 rebuilt with the DSL. *)
let toy_via_dsl program =
  let ir = E.input "IR.1" 16 in
  let read hi lo =
    E.File_read { file = "REG"; data_width = 16; addr = E.slice ir ~hi ~lo }
  in
  B.start ~name:"toy3" ~stages:[ "FETCH"; "EX"; "WB" ]
  |> B.simple "PC" ~width:8 ~stage:0 ~visible:true
  |> B.file "IMEM" ~width:16 ~addr_bits:8 ~stage:0
       ~init:(List.map (bv ~width:16) program)
  |> B.simple "IR.1" ~width:16 ~stage:0
  |> B.simple "C.2" ~width:16 ~stage:1
  |> B.simple "D.2" ~width:4 ~stage:1
  |> B.file "REG" ~width:16 ~addr_bits:4 ~stage:2 ~visible:true
       ~init:[ bv ~width:16 0; bv ~width:16 1; bv ~width:16 2 ]
  |> B.write ~stage:0 "IR.1"
       (E.File_read { file = "IMEM"; data_width = 16; addr = E.input "PC" 8 })
  |> B.write ~stage:0 "PC" (E.( +: ) (E.input "PC" 8) (E.const_int ~width:8 1))
  |> B.write ~stage:1 "C.2" (E.( +: ) (read 7 4) (read 3 0))
  |> B.write ~stage:1 "D.2" (E.slice ir ~hi:11 ~lo:8)
  |> B.write ~stage:2 ~addr:(E.input "D.2" 4) "REG" (E.input "C.2" 16)
  |> B.spec

let test_matches_handwritten () =
  let dsl = toy_via_dsl Core.Toy.default_program in
  let hand = Core.Toy.machine ~program:Core.Toy.default_program in
  Alcotest.(check int) "stages" hand.Machine.Spec.n_stages dsl.Machine.Spec.n_stages;
  Alcotest.(check (list string)) "register names"
    (List.map (fun (r : Machine.Spec.register) -> r.Machine.Spec.reg_name)
       hand.Machine.Spec.registers
    |> List.sort String.compare)
    (List.map (fun (r : Machine.Spec.register) -> r.Machine.Spec.reg_name)
       dsl.Machine.Spec.registers
    |> List.sort String.compare);
  (* Behaviourally identical: same sequential trace. *)
  let t1 = Machine.Seqsem.run ~max_instructions:6 dsl in
  let t2 = Machine.Seqsem.run ~max_instructions:6 hand in
  for i = 0 to 6 do
    List.iter2
      (fun (n1, v1) (n2, v2) ->
        Alcotest.(check string) "name" n1 n2;
        Alcotest.(check bool) (Printf.sprintf "instr %d %s" i n1) true
          (Machine.Value.equal v1 v2))
      (Machine.Seqsem.state_before t1 i)
      (Machine.Seqsem.state_before t2 i)
  done

let test_dsl_machine_pipelines () =
  let m = toy_via_dsl Core.Toy.default_program in
  let tr = Pipeline.Transform.run ~hints:Core.Toy.hints m in
  let report = Proof_engine.Consistency.check ~max_instructions:6 tr in
  Alcotest.(check bool) "consistent" true (Proof_engine.Consistency.ok report)

let test_pipe_combinator () =
  let b =
    B.start ~name:"p" ~stages:[ "A"; "B"; "C"; "D" ]
    |> B.simple "ctl.1" ~width:4 ~stage:0
    |> B.pipe "ctl.1" ~through:3
    |> B.write ~stage:0 "ctl.1" (E.const_int ~width:4 5)
  in
  let m = B.spec b in
  Alcotest.(check bool) "ctl.2" true (Machine.Spec.register_exists m "ctl.2");
  Alcotest.(check bool) "ctl.4" true (Machine.Spec.register_exists m "ctl.4");
  Alcotest.(check (option string)) "linked" (Some "ctl.3")
    (Machine.Spec.find_register m "ctl.4").Machine.Spec.prev_instance;
  Alcotest.(check int) "stage of ctl.4" 3
    (Machine.Spec.find_register m "ctl.4").Machine.Spec.stage;
  (* Undotted names get suffixes from their stage. *)
  let m2 =
    B.start ~name:"q" ~stages:[ "A"; "B"; "C" ]
    |> B.simple "v" ~width:8 ~stage:0
    |> B.pipe "v" ~through:2
    |> B.write ~stage:0 "v" (E.const_int ~width:8 1)
    |> B.spec
  in
  Alcotest.(check bool) "v.2" true (Machine.Spec.register_exists m2 "v.2");
  Alcotest.(check bool) "v.3" true (Machine.Spec.register_exists m2 "v.3")

let test_validation_raises () =
  (* A width clash must be rejected at [spec]. *)
  let b =
    B.start ~name:"bad" ~stages:[ "A"; "B" ]
    |> B.simple "x" ~width:8 ~stage:0
    |> B.write ~stage:0 "x" (E.const_int ~width:4 0)
  in
  match B.spec b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted ill-typed write"

let test_bad_stage_rejected () =
  match
    B.start ~name:"bad" ~stages:[ "A" ] |> B.simple "x" ~width:8 ~stage:3
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range stage"

let () =
  Alcotest.run "build"
    [
      ( "dsl",
        [
          Alcotest.test_case "matches handwritten toy" `Quick
            test_matches_handwritten;
          Alcotest.test_case "pipelines" `Quick test_dsl_machine_pipelines;
          Alcotest.test_case "pipe combinator" `Quick test_pipe_combinator;
          Alcotest.test_case "validation" `Quick test_validation_raises;
          Alcotest.test_case "stage range" `Quick test_bad_stage_rejected;
        ] );
    ]
