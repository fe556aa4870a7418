(* The machine substrate: values, state, spec lookups, validation and
   sequential semantics (Table 1). *)

module Spec = Machine.Spec
module E = Hw.Expr
module B = Hw.Bitvec

let bv ~width v = B.make ~width v

let toy = Core.Toy.machine ~program:Core.Toy.default_program

(* ---------------- Value / State ---------------- *)

let test_value_file () =
  let f = Machine.Value.zero_file ~width:8 ~addr_bits:2 in
  Machine.Value.write_file f (bv ~width:2 3) (bv ~width:8 42);
  Alcotest.(check int) "written" 42
    (B.to_int (Machine.Value.read_file f (bv ~width:2 3)));
  let g = Machine.Value.copy f in
  Machine.Value.write_file f (bv ~width:2 3) (bv ~width:8 0);
  Alcotest.(check int) "copy isolated" 42
    (B.to_int (Machine.Value.read_file g (bv ~width:2 3)));
  Alcotest.(check bool) "not equal" false (Machine.Value.equal f g)

let test_value_of_list () =
  let f =
    Machine.Value.file_of_list ~width:8 ~addr_bits:2
      [ bv ~width:8 1; bv ~width:8 2 ]
  in
  Alcotest.(check int) "entry 1" 2
    (B.to_int (Machine.Value.read_file f (bv ~width:2 1)));
  Alcotest.(check int) "beyond list" 0
    (B.to_int (Machine.Value.read_file f (bv ~width:2 3)));
  Alcotest.check_raises "too long"
    (Invalid_argument "Value.file_of_list: too many entries") (fun () ->
      ignore
        (Machine.Value.file_of_list ~width:8 ~addr_bits:1
           [ bv ~width:8 1; bv ~width:8 2; bv ~width:8 3 ]))

let test_state () =
  let st = Machine.State.create toy in
  Alcotest.(check int) "PC initial" 0 (B.to_int (Machine.State.get_scalar st "PC"));
  Alcotest.(check int) "REG r2 initial" 2
    (B.to_int (Machine.State.read_file st "REG" (bv ~width:4 2)));
  Machine.State.set_scalar st "PC" (bv ~width:8 9);
  let snap = Machine.State.snapshot st in
  Machine.State.set_scalar st "PC" (bv ~width:8 0);
  Machine.State.restore st snap;
  Alcotest.(check int) "restored" 9 (B.to_int (Machine.State.get_scalar st "PC"))

let test_snapshot_diff () =
  let st = Machine.State.create toy in
  let a = Machine.State.snapshot_visible toy st in
  Machine.State.write_file st "REG" ~addr:(bv ~width:4 5) ~data:(bv ~width:16 7);
  let b = Machine.State.snapshot_visible toy st in
  Alcotest.(check (list string)) "diff" [ "REG" ] (Machine.State.diff a b);
  Alcotest.(check bool) "equal_on" false (Machine.State.equal_on a b)

(* Write logs: every write to a file logs its entry, in write order,
   until the next reset or drain, and a whole-value store marks the
   register replaced instead.  A write path that did neither
   would let the consistency checker accept a file without comparing
   the entry it changed. *)
let test_write_log () =
  let module S = Machine.State in
  let img =
    Machine.Value.File (Array.init 16 (fun i -> bv ~width:16 (3 * i)))
  in
  let contents = Machine.Value.copy img in
  let st = S.create toy in
  let c = S.cell st "REG" in
  let logged what expected =
    Alcotest.(check (list int)) what expected
      (List.init (S.cell_log_length c) (fun j -> (S.cell_log c).(j)))
  in
  let replaced what expected =
    Alcotest.(check bool) what expected (S.cell_replaced c)
  in
  let reset () = S.reset ~init:[ ("REG", img) ] toy st in
  let write a d = S.write_file st "REG" ~addr:(bv ~width:4 a) ~data:(bv ~width:16 d) in
  logged "create: nothing written" [];
  replaced "create: not replaced" false;
  reset ();
  (* write_file, also when it stores the value already there *)
  write 5 (B.to_int (S.read_file st "REG" (bv ~width:4 5)));
  logged "an equal write logs" [ 5 ];
  write 2 1;
  write 5 7;
  write 2 9;
  logged "every write, in order" [ 5; 2; 5; 2 ];
  S.cell_write_file c ~addr:(16 + 3) ~data:(bv ~width:16 4);
  logged "a resolved write logs its masked entry" [ 5; 2; 5; 2; 3 ];
  reset ();
  logged "reset empties the log" [];
  write 3 1;
  S.cell_drain c;
  logged "drained" [];
  write 3 2;
  logged "a drained entry logs again" [ 3 ];
  (* whole-value stores *)
  List.iter
    (fun (what, store) ->
      reset ();
      store ();
      replaced what true;
      S.cell_drain c;
      replaced (what ^ ", drained") true;
      reset ();
      replaced (what ^ ", then reset") false)
    [
      ("set", fun () -> S.set st "REG" (Machine.Value.copy img));
      ("set_scalar", fun () -> S.set_scalar st "REG" (bv ~width:16 0));
      ("restore", fun () -> S.restore st (S.snapshot st));
    ];
  reset ();
  S.set_scalar st "PC" (bv ~width:8 3);
  replaced "a scalar store to a scalar register" false;
  S.reset toy st;
  logged "reset to the spec's image" [];
  (* Copy-on-write: a reset shares the image, the first write goes to a
     copy of it, so the image itself never changes. *)
  reset ();
  Alcotest.(check bool) "a reset shares the image" true (S.get st "REG" == img);
  Alcotest.(check bool) "a snapshot of a shared file is the image" true
    (S.cell_snapshot c == img);
  write 5 1;
  Alcotest.(check bool) "a write leaves the image intact" true
    (Machine.Value.equal img contents);
  Alcotest.(check bool) "a snapshot after a write is a copy" true
    (S.cell_snapshot c != S.get st "REG"
    && Machine.Value.equal (S.cell_snapshot c) (S.get st "REG"));
  Alcotest.(check int) "the write landed" 1
    (B.to_int (S.read_file st "REG" (bv ~width:4 5)));
  reset ();
  Alcotest.(check bool) "the next reset reads the image back" true
    (Machine.Value.equal (S.get st "REG") contents)
;
  (* A file without an image is zero-filled by a reset, never inside
     an image the previous reset shared. *)
  let bare = { toy with Spec.init = List.remove_assoc "REG" toy.Spec.init } in
  let st = S.create bare in
  S.reset ~init:[ ("REG", img) ] bare st;
  S.reset bare st;
  Alcotest.(check bool) "a zero-filling reset leaves the image intact" true
    (Machine.Value.equal img contents);
  Alcotest.(check bool) "and zero-fills" true
    (Machine.Value.equal (S.get st "REG")
       (Machine.Value.zero_file ~width:16 ~addr_bits:4))

(* ---------------- Spec lookups ---------------- *)

let test_spec_lookup () =
  Alcotest.(check int) "REG stage" 2 (Spec.find_register toy "REG").Spec.stage;
  Alcotest.(check bool) "exists" true (Spec.register_exists toy "PC");
  Alcotest.(check bool) "missing" false (Spec.register_exists toy "nope");
  match Spec.write_to toy "REG" with
  | Some (2, _) -> ()
  | Some (k, _) -> Alcotest.failf "REG written by stage %d" k
  | None -> Alcotest.fail "no write to REG"

let test_stage_inputs () =
  let ins = Spec.stage_inputs toy 1 in
  Alcotest.(check bool) "reads IR.1" true (List.mem_assoc "IR.1" ins);
  let files = Spec.stage_file_reads toy 1 in
  Alcotest.(check int) "two REG ports" 2 (List.length files)

let test_instance_chain () =
  let dlx = Dlx.Seq_dlx.machine Dlx.Seq_dlx.Base ~program:[] in
  Alcotest.(check (list string)) "C chain back" [ "C.4"; "C.3" ]
    (Spec.instance_chain dlx "C.4");
  Alcotest.(check (option string)) "next instance" (Some "C.4")
    (Spec.next_instance dlx "C.3");
  Alcotest.(check (option string)) "instance readable by stage 4"
    (Some "C.4")
    (Spec.instance_at_stage dlx "C.3" ~consumer_stage:4);
  Alcotest.(check (option string)) "gpr_we at stage 2" (Some "gpr_we.2")
    (Spec.instance_at_stage dlx "gpr_we.4" ~consumer_stage:2)

(* ---------------- Validation ---------------- *)

let break f =
  let m = toy in
  f m

let has_issue issues fragment =
  List.exists
    (fun (i : Machine.Validate.issue) ->
      let s = i.Machine.Validate.where ^ " " ^ i.Machine.Validate.what in
      let n = String.length fragment and h = String.length s in
      let rec go j = j + n <= h && (String.sub s j n = fragment || go (j + 1)) in
      go 0)
    issues

let test_validate_ok () =
  Alcotest.(check int) "toy is clean" 0
    (List.length (Machine.Validate.run toy));
  let dlx =
    Dlx.Seq_dlx.machine (Dlx.Seq_dlx.With_interrupts { sisr = 8 }) ~program:[]
  in
  Alcotest.(check int) "dlx_intr is clean" 0
    (List.length (Machine.Validate.run dlx))

let test_validate_double_writer () =
  let m =
    break (fun m ->
        let s0 = Spec.stage_of m 0 in
        let extra =
          { Spec.dst = "C.2"; value = E.const_int ~width:16 0; guard = None;
            wr_addr = None }
        in
        { m with Spec.stages =
            List.map (fun (s : Spec.stage) ->
                if s.Spec.index = 0 then { s with Spec.writes = extra :: s0.Spec.writes }
                else s)
              m.Spec.stages })
  in
  let issues = Machine.Validate.run m in
  Alcotest.(check bool) "flags wrong stage" true
    (has_issue issues "belongs to stage 1")

let test_validate_undeclared_read () =
  let m =
    break (fun m ->
        { m with Spec.stages =
            List.map (fun (s : Spec.stage) ->
                if s.Spec.index = 1 then
                  { s with Spec.writes =
                      { Spec.dst = "C.2"; value = E.input "ghost" 16;
                        guard = None; wr_addr = None }
                      :: List.tl s.Spec.writes }
                else s)
              m.Spec.stages })
  in
  Alcotest.(check bool) "flags undeclared" true
    (has_issue (Machine.Validate.run m) "undeclared register ghost")

let test_validate_width () =
  let m =
    break (fun m ->
        { m with Spec.stages =
            List.map (fun (s : Spec.stage) ->
                if s.Spec.index = 1 then
                  { s with Spec.writes =
                      { Spec.dst = "C.2"; value = E.const_int ~width:8 0;
                        guard = None; wr_addr = None }
                      :: List.tl s.Spec.writes }
                else s)
              m.Spec.stages })
  in
  Alcotest.(check bool) "flags width" true
    (has_issue (Machine.Validate.run m) "value width 8, register width 16")

let test_validate_file_addr () =
  let m =
    break (fun m ->
        { m with Spec.stages =
            List.map (fun (s : Spec.stage) ->
                if s.Spec.index = 2 then
                  { s with Spec.writes =
                      [ { Spec.dst = "REG"; value = E.input "C.2" 16;
                          guard = None; wr_addr = None } ] }
                else s)
              m.Spec.stages })
  in
  Alcotest.(check bool) "flags missing address" true
    (has_issue (Machine.Validate.run m) "without an address")

let test_reads_needing_forwarding () =
  let needs = Machine.Validate.reads_needing_forwarding toy in
  Alcotest.(check (list (pair int string))) "REG at stage 1" [ (1, "REG") ] needs;
  let dlx = Dlx.Seq_dlx.machine Dlx.Seq_dlx.Base ~program:[] in
  let needs = Machine.Validate.reads_needing_forwarding dlx in
  Alcotest.(check bool) "DPC at fetch" true (List.mem (0, "DPC") needs);
  Alcotest.(check bool) "GPR at decode" true (List.mem (1, "GPR") needs);
  Alcotest.(check bool) "MEM is local" false (List.mem (3, "MEM") needs)

(* ---------------- Sequential semantics ---------------- *)

let test_table1 () =
  (* The paper's Table 1: ue round robin for a 3-stage machine. *)
  let w = Machine.Seqsem.ue_table ~n_stages:3 ~cycles:9 in
  let cell t c = Hw.Wave.cell w ~cycle:t ~column:(Printf.sprintf "ue_%d" c) in
  for t = 0 to 8 do
    for k = 0 to 2 do
      Alcotest.(check (option string))
        (Printf.sprintf "cycle %d ue_%d" t k)
        (Some (if t mod 3 = k then "1" else "0"))
        (cell t k)
    done
  done

let test_seq_run () =
  let trace, st =
    Machine.Seqsem.run_state ~max_instructions:3 toy
  in
  Alcotest.(check int) "count" 3 trace.Machine.Seqsem.instructions;
  Alcotest.(check (list string)) "visible registers" [ "PC"; "REG" ]
    (Array.to_list trace.Machine.Seqsem.registers);
  (* After the first program instruction r3 := r1 + r2 = 3. *)
  Alcotest.(check int) "r3" 3
    (B.to_int (Machine.State.read_file st "REG" (bv ~width:4 3)));
  (* R_S^1 reflects it too. *)
  match Machine.Seqsem.value_before trace "REG" 1 with
  | Some v ->
    Alcotest.(check int) "spec r3" 3
      (B.to_int (Machine.Value.read_file v (bv ~width:4 3)))
  | None -> Alcotest.fail "no REG column"

let test_seq_halt () =
  let trace =
    Machine.Seqsem.run
      ~halt:(fun st -> B.to_int (Machine.State.get_scalar st "PC") >= 2)
      ~max_instructions:100 toy
  in
  Alcotest.(check bool) "halted" true trace.Machine.Seqsem.halted;
  Alcotest.(check int) "two instructions" 2 trace.Machine.Seqsem.instructions

(* Commit: instance pass-through. *)
let test_commit_passthrough () =
  let dlx = Dlx.Seq_dlx.machine Dlx.Seq_dlx.Base ~program:[] in
  let st = Machine.State.create dlx in
  Machine.State.set_scalar st "gpr_we.2" (B.one 1);
  (* Stage 2 has no explicit write to gpr_we.3: it must shift. *)
  Machine.Seqsem.step_stage dlx st ~stage:2;
  Alcotest.(check int) "shifted" 1
    (B.to_int (Machine.State.get_scalar st "gpr_we.3"))

let () =
  Alcotest.run "machine"
    [
      ( "values and state",
        [
          Alcotest.test_case "file values" `Quick test_value_file;
          Alcotest.test_case "file of list" `Quick test_value_of_list;
          Alcotest.test_case "state" `Quick test_state;
          Alcotest.test_case "snapshots" `Quick test_snapshot_diff;
          Alcotest.test_case "write log" `Quick test_write_log;
        ] );
      ( "spec",
        [
          Alcotest.test_case "lookups" `Quick test_spec_lookup;
          Alcotest.test_case "stage inputs" `Quick test_stage_inputs;
          Alcotest.test_case "instance chains" `Quick test_instance_chain;
        ] );
      ( "validation",
        [
          Alcotest.test_case "clean machines" `Quick test_validate_ok;
          Alcotest.test_case "wrong-stage write" `Quick test_validate_double_writer;
          Alcotest.test_case "undeclared read" `Quick test_validate_undeclared_read;
          Alcotest.test_case "width mismatch" `Quick test_validate_width;
          Alcotest.test_case "file address" `Quick test_validate_file_addr;
          Alcotest.test_case "forwarding analysis" `Quick
            test_reads_needing_forwarding;
        ] );
      ( "sequential semantics",
        [
          Alcotest.test_case "table 1" `Quick test_table1;
          Alcotest.test_case "run" `Quick test_seq_run;
          Alcotest.test_case "halt" `Quick test_seq_halt;
          Alcotest.test_case "instance pass-through" `Quick
            test_commit_passthrough;
        ] );
    ]
