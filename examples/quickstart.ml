(* Quickstart: pipeline a 3-stage accumulator machine.

   The machine executes a tiny "triadic add" ISA: every instruction is
   [op dst src1 src2] and computes REG[dst] := REG[src1] + REG[src2].
   Stage 0 fetches, stage 1 reads operands and adds, stage 2 writes the
   register file.  The prepared sequential machine reads REG in stage 1
   but writes it in stage 2 — a classic data hazard.  The
   transformation tool synthesizes the forwarding network (one hit
   signal, one equality tester, one multiplexer per operand), after
   which the pipeline sustains CPI = 1 even on back-to-back dependent
   instructions. *)

let bv ~width v = Hw.Bitvec.make ~width v
let e_input = Hw.Expr.input
let e_slice = Hw.Expr.slice

(* Instruction layout: [15:12] unused opcode, [11:8] dst, [7:4] src1,
   [3:0] src2. *)
let encode ~dst ~src1 ~src2 = (dst lsl 8) lor (src1 lsl 4) lor src2

let machine ~program : Machine.Spec.t =
  let reg name width stage ?prev ?(visible = false) kind =
    {
      Machine.Spec.reg_name = name;
      width;
      stage;
      kind;
      visible;
      prev_instance = prev;
    }
  in
  let imem_init =
    Machine.Value.file_of_list ~width:16 ~addr_bits:8
      (List.map (bv ~width:16) program)
  in
  let ir = e_input "IR.1" 16 in
  let read_reg field_hi field_lo =
    Hw.Expr.File_read
      {
        file = "REG";
        data_width = 16;
        addr = e_slice ir ~hi:field_hi ~lo:field_lo;
      }
  in
  {
    Machine.Spec.machine_name = "toy3";
    n_stages = 3;
    registers =
      [
        reg "PC" 8 0 ~visible:true Machine.Spec.Simple;
        reg "IMEM" 16 0 (Machine.Spec.File { addr_bits = 8 });
        reg "IR.1" 16 0 Machine.Spec.Simple;
        reg "C.2" 16 1 Machine.Spec.Simple;
        reg "D.2" 4 1 Machine.Spec.Simple;
        reg "REG" 16 2 ~visible:true (Machine.Spec.File { addr_bits = 4 });
      ];
    stages =
      [
        {
          Machine.Spec.index = 0;
          stage_name = "FETCH";
          writes =
            [
              {
                Machine.Spec.dst = "IR.1";
                value =
                  Hw.Expr.File_read
                    { file = "IMEM"; data_width = 16; addr = e_input "PC" 8 };
                guard = None;
                wr_addr = None;
              };
              {
                Machine.Spec.dst = "PC";
                value = Hw.Expr.( +: ) (e_input "PC" 8) (Hw.Expr.const_int ~width:8 1);
                guard = None;
                wr_addr = None;
              };
            ];
        };
        {
          Machine.Spec.index = 1;
          stage_name = "EX";
          writes =
            [
              {
                Machine.Spec.dst = "C.2";
                value = Hw.Expr.( +: ) (read_reg 7 4) (read_reg 3 0);
                guard = None;
                wr_addr = None;
              };
              {
                Machine.Spec.dst = "D.2";
                value = e_slice ir ~hi:11 ~lo:8;
                guard = None;
                wr_addr = None;
              };
            ];
        };
        {
          Machine.Spec.index = 2;
          stage_name = "WB";
          writes =
            [
              {
                Machine.Spec.dst = "REG";
                value = e_input "C.2" 16;
                guard = None;
                wr_addr = Some (e_input "D.2" 4);
              };
            ];
        };
      ];
    init =
      [
        ("IMEM", imem_init);
        ( "REG",
          Machine.Value.file_of_list ~width:16 ~addr_bits:4
            [ bv ~width:16 0; bv ~width:16 1; bv ~width:16 2 ] );
      ];
  }

let () =
  (* A dependency chain: r3 = r1+r2; r4 = r3+r3; r5 = r4+r1; ... *)
  let program =
    [
      encode ~dst:3 ~src1:1 ~src2:2;
      encode ~dst:4 ~src1:3 ~src2:3;
      encode ~dst:5 ~src1:4 ~src2:1;
      encode ~dst:6 ~src1:5 ~src2:4;
      encode ~dst:7 ~src1:6 ~src2:6;
      encode ~dst:1 ~src1:7 ~src2:2;
    ]
  in
  let n_instructions = List.length program in
  let m = machine ~program in
  Machine.Validate.check_exn m;
  Format.printf "== prepared sequential machine ==@.%a@." Machine.Spec.pp_summary m;

  (* Reference: the sequential machine (round-robin ue, Table 1). *)
  let seq_trace, seq_state =
    Machine.Seqsem.run_state ~max_instructions:n_instructions m
  in
  Format.printf "sequential run: %d instructions in %d cycles (CPI %.2f)@."
    seq_trace.Machine.Seqsem.instructions
    (seq_trace.Machine.Seqsem.instructions * 3)
    3.0;

  (* Transform: synthesize forwarding + interlock + stall engine. *)
  let hints =
    [
      Pipeline.Fwd_spec.hint ~stage:1 ~label:"srcA" (Pipeline.Fwd_spec.File_port ("REG", 0));
      Pipeline.Fwd_spec.hint ~stage:1 ~label:"srcB" (Pipeline.Fwd_spec.File_port ("REG", 1));
    ]
  in
  let tr = Pipeline.Transform.run ~hints m in
  Format.printf "@.== generated hardware ==@.%a@." Pipeline.Report.pp_inventory tr;

  (* Run the pipelined machine and compare final visible state. *)
  let result = Pipeline.Pipesem.run ~stop_after:n_instructions tr in
  Format.printf "pipelined run: %d instructions in %d cycles (CPI %.2f)@."
    result.Pipeline.Pipesem.stats.Pipeline.Pipesem.retired
    result.Pipeline.Pipesem.stats.Pipeline.Pipesem.cycles
    (Pipeline.Pipesem.cpi result.Pipeline.Pipesem.stats);

  (* Verify: the paper's data-consistency criterion (section 6.2) and
     liveness (6.3), both read off one co-simulation against the
     sequential reference. *)
  let report = Proof_engine.Consistency.check tr in
  Format.printf "@.== verification ==@.%a" Proof_engine.Consistency.pp_report
    report;
  let live = report.Proof_engine.Consistency.liveness in
  Format.printf "%a" Proof_engine.Liveness.pp_report live;
  if not (Proof_engine.Consistency.ok report && Proof_engine.Liveness.ok live)
  then exit 1;

  (* The register file is written by the last stage, so it also matches
     as a final state. *)
  Format.printf "@.final register file:@.";
  (match Machine.State.get result.Pipeline.Pipesem.state "REG" with
  | v -> Format.printf "  REG = %a@." Machine.Value.pp v);
  let seq_reg = Machine.State.get seq_state "REG" in
  assert (
    Machine.Value.equal seq_reg
      (Machine.State.get result.Pipeline.Pipesem.state "REG"));
  Format.printf "matches the sequential reference. Done.@."
