(* The consistency checker compares a register file only at the entries
   either side wrote since reset, against positional golden traces.
   This battery holds it to a full-compare oracle kept here: a one-lane
   co-simulation that, at every comparison the checker makes, rebuilds
   R_S^{i+1} from the trace and compares each visible register whole
   ([Value.equal]).  Every report of the scalar path (check_batched) and
   of the pack path (check_lanes) must carry the oracle's comparison
   count, violations — texts included — and final-state verdict, on
   random machines and their structural mutants, every kernel on every
   DLX machine, seed-0 branch-axis sweep points (their programs store)
   and DLX structural mutants.  A DLX machine whose GPR write address
   has a bit stuck at 1 keeps the violation texts the whole-file
   checker gave it. *)

module C = Proof_engine.Consistency
module P = Pipeline.Pipesem
module SE = Pipeline.Stall_engine
module Spec = Machine.Spec
module G = Proof_engine.Machine_gen
module SD = Dlx.Seq_dlx
module Mutate = Fault.Mutate

let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

type verdict = {
  comparisons : int;
  violations : C.violation list;
  final : bool option;
}

let verdict_of (r : C.report) =
  {
    comparisons = r.C.edge_checks;
    violations = r.C.violations;
    final = r.C.final_visible_match;
  }

let pp_violation (v : C.violation) =
  Printf.sprintf "cycle %d stage %d instr %d register %s: expected %s, got %s"
    v.C.at_cycle v.C.at_stage v.C.tag v.C.register v.C.expected v.C.got

(* The checker's rules, comparing whole values: after instruction [i]
   updates stage [k], the visible registers of stage [k] hold R_S^{i+1};
   a rollback cancels the pending violations of the instructions it
   squashes; a retiring rollback compares every visible register; a
   rollback-free run that completes compares the last stage's
   registers at the end. *)
let oracle ?init ~(reference : Machine.Seqsem.trace) (t : Pipeline.Transform.t) =
  let base = t.Pipeline.Transform.base in
  let n = base.Spec.n_stages in
  let n_instr = reference.Machine.Seqsem.instructions in
  let visible = Spec.visible_registers base in
  let s = P.session (P.compile t) in
  let state = P.session_state s in
  let comparisons = ref 0 and pending = ref [] and rolled_back = ref false in
  let equal_at (r : Spec.register) i =
    match Machine.Seqsem.value_before reference r.Spec.reg_name i with
    | None -> None
    | Some expected ->
      let got = Machine.State.get state r.Spec.reg_name in
      Some (Machine.Value.equal expected got, expected, got)
  in
  let compare ~cycle ~stage ~tag regs =
    List.iter
      (fun (r : Spec.register) ->
        incr comparisons;
        match equal_at r (tag + 1) with
        | None | Some (true, _, _) -> ()
        | Some (false, expected, got) ->
          pending :=
            {
              C.at_cycle = cycle;
              at_stage = stage;
              tag;
              register = r.Spec.reg_name;
              expected = Format.asprintf "%a" Machine.Value.pp expected;
              got = Format.asprintf "%a" Machine.Value.pp got;
            }
            :: !pending)
      regs
  in
  let obs =
    {
      P.no_observer with
      P.ob_cycle =
        (fun ~cycle:_ ~running (s : SE.lane_signals) ~dhaz:_ ~ext:_ ~tags ->
          if running land 1 <> 0 then begin
            let deepest = ref (-1) in
            for k = 0 to n - 1 do
              if s.SE.l_rollback.(k) land 1 <> 0 then deepest := k
            done;
            if !deepest >= 0 then begin
              rolled_back := true;
              let b = tags.(!deepest).(0) in
              if b >= 0 then
                pending := List.filter (fun v -> v.C.tag < b) !pending
            end
          end);
      ob_edge =
        (fun ~cycle ~running (s : SE.lane_signals) ~tags ->
          for k = 0 to n - 1 do
            if s.SE.l_ue.(k) land running land 1 <> 0 then begin
              let i = tags.(k).(0) in
              if i >= 0 && i + 1 <= n_instr then
                compare ~cycle ~stage:k ~tag:i
                  (List.filter (fun (r : Spec.register) -> r.Spec.stage = k) visible)
            end
          done);
      ob_retire =
        (fun ~cycle:_ ~lane:_ ~tag ~kind ->
          match kind with
          | P.Via_rollback _ when tag + 1 <= n_instr ->
            compare ~cycle:(-1) ~stage:(-1) ~tag visible
          | P.Normal | P.Via_rollback _ -> ());
    }
  in
  let r = P.run_observed ?init ~obs ~stop_after:n_instr s in
  let final =
    if !rolled_back || r.P.lr_outcome <> P.Completed then None
    else
      Some
        (List.for_all
           (fun (r : Spec.register) ->
             r.Spec.stage <> n - 1
             || match equal_at r n_instr with None -> true | Some (ok, _, _) -> ok)
           visible)
  in
  { comparisons = !comparisons; violations = List.rev !pending; final }

(* ------------------------------------------------------------------ *)
(* Checker against oracle, scalar and pack paths                       *)
(* ------------------------------------------------------------------ *)

let check_verdict ~what ~expected got =
  Alcotest.(check int) (what ^ ": comparisons") expected.comparisons got.comparisons;
  Alcotest.(check (list string))
    (what ^ ": violations")
    (List.map pp_violation expected.violations)
    (List.map pp_violation got.violations);
  Alcotest.(check (option bool)) (what ^ ": final state") expected.final got.final

let rec chunk n l =
  if l = [] then []
  else
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> split (k - 1) (x :: acc) tl
    in
    let pack, rest = split n [] l in
    pack :: chunk n rest

(* Lane [l] is the program with reference [references.(l)] and initial
   values [inits.(l)] on the machine [t].  A run that raises (a mutant
   can break the co-simulation) must raise on every path. *)
let agree ~what t ~references ~inits =
  let outcome f = match f () with v -> Ok v | exception e -> Error e in
  let lanes = Array.to_list (Array.mapi (fun l r -> (l, r, inits.(l))) references) in
  let oracles =
    List.map (fun (_, reference, init) -> outcome (fun () -> oracle ~init ~reference t)) lanes
  in
  let shape = outcome (fun () -> C.shape t) in
  let scalar =
    List.map
      (fun (_, (reference : Machine.Seqsem.trace), init) ->
        match shape with
        | Error e -> Error e
        | Ok shape ->
          outcome (fun () ->
              verdict_of
                (C.check_batched
                   ~max_instructions:reference.Machine.Seqsem.instructions
                   ~reference ~init shape)))
      lanes
  in
  let packed =
    List.concat_map
      (fun pack ->
        let references = Array.of_list (List.map (fun (_, r, _) -> r) pack) in
        let inits = Array.of_list (List.map (fun (_, _, i) -> i) pack) in
        match shape with
        | Error e -> List.map (fun _ -> Error e) pack
        | Ok shape -> (
          match C.check_lanes ~references ~inits shape with
          | vs -> Array.to_list (Array.map (fun v -> Ok (verdict_of v.C.lv_report)) vs)
          | exception e -> List.map (fun _ -> Error e) pack))
      (chunk Hw.Lanes.max_lanes lanes)
  in
  List.iteri
    (fun l expected ->
      let what = Printf.sprintf "%s, lane %d" what l in
      match (expected, List.nth scalar l, List.nth packed l) with
      | Ok expected, Ok s, Ok p ->
        check_verdict ~what:(what ^ " scalar") ~expected s;
        check_verdict ~what:(what ^ " pack") ~expected p
      | Error _, Error _, Error _ -> ()
      | _ -> Alcotest.failf "%s: the oracle and the checkers disagree on raising" what)
    oracles

(* ------------------------------------------------------------------ *)
(* Random machines and their structural mutants                        *)
(* ------------------------------------------------------------------ *)

type case = { mseed : int; width : int; length : int }

let rec enumerate alphabet = function
  | 0 -> [ [] ]
  | n ->
    List.concat_map
      (fun rest -> List.map (fun i -> i :: rest) alphabet)
      (enumerate alphabet (n - 1))

(* As test_lanes builds its batches: every program of [length] over an
   alphabet of [width] encodings, references from each program's own
   sequential machine. *)
let check_random_case { mseed; width; length } =
  let p = G.sample_params ~seed:mseed in
  let alphabet =
    List.init width (fun i ->
        G.encode p ~late:(i land 1 = 1) ~dst:((i mod 3) + 1) ~src1:1
          ~src2:((i mod 2) + 1))
  in
  let programs = enumerate alphabet length in
  let references =
    Array.of_list
      (List.map
         (fun program ->
           Machine.Seqsem.run ~max_instructions:(length + 4) (G.machine p ~program))
         programs)
  in
  let inits = Array.of_list (List.map (fun program -> G.image p ~program) programs) in
  let t = Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program:(List.hd programs)) in
  let what = Printf.sprintf "QCHECK_SEED=%d machine %d" qcheck_seed mseed in
  agree ~what t ~references ~inits;
  List.iter
    (fun (m : Mutate.mutant) ->
      agree ~what:(what ^ " mutant " ^ m.Mutate.mut_id) m.Mutate.mut_tr ~references ~inits)
    (List.filteri
       (fun i _ -> i < 2)
       (List.filter
          (fun (m : Mutate.mutant) -> m.Mutate.mut_structural)
          (Mutate.enumerate ~transients:0 ~seed:mseed t)));
  true

let prop_random_machines =
  QCheck.Test.make ~name:"random machines and mutants = full compare" ~count:12
    (QCheck.make
       ~print:(fun { mseed; width; length } ->
         Printf.sprintf "QCHECK_SEED=%d seed=%d alphabet=%d length=%d" qcheck_seed
           mseed width length)
       QCheck.Gen.(
         let* mseed = int_bound 10_000 in
         let* width = int_range 1 4 in
         let+ length = int_range 1 3 in
         { mseed; width; length }))
    check_random_case

(* ------------------------------------------------------------------ *)
(* DLX                                                                 *)
(* ------------------------------------------------------------------ *)

let dlx_machines =
  let intr = SD.With_interrupts { sisr = 8 } in
  let dlx6 (p : Dlx.Progs.t) =
    Pipeline.Transform.run ~hints:(SD.hints SD.Base)
      (Machine.Retime.insert_passthrough
         (SD.machine ~data:p.Dlx.Progs.data SD.Base ~program:(Dlx.Progs.program p))
         ~at:3)
  in
  let seq variant (p : Dlx.Progs.t) =
    SD.transform ~data:p.Dlx.Progs.data variant ~program:(Dlx.Progs.program p)
  in
  [
    ("dlx5", SD.Base, seq SD.Base);
    ("dlx6", SD.Base, dlx6);
    ("dlx5_intr", intr, seq intr);
    ("dlx5_bp", SD.Branch_predict, seq SD.Branch_predict);
  ]

(* A batch of programs on one DLX machine: the shape is the first
   program's, the others ride on their images. *)
let agree_dlx ~what (build, variant) programs =
  let reference (p : Dlx.Progs.t) =
    SD.ref_trace ~data:p.Dlx.Progs.data variant ~program:(Dlx.Progs.program p)
      ~instructions:p.Dlx.Progs.dyn_instructions
  in
  let image (p : Dlx.Progs.t) =
    SD.image ~data:p.Dlx.Progs.data ~program:(Dlx.Progs.program p) ()
  in
  agree ~what (build (List.hd programs))
    ~references:(Array.of_list (List.map reference programs))
    ~inits:(Array.of_list (List.map image programs))

let test_kernels () =
  List.iter
    (fun (name, variant, build) ->
      let kernels =
        match variant with
        | SD.With_interrupts _ -> Dlx.Progs.all_kernels @ [ Dlx.Progs.overflow_trap ]
        | SD.Base | SD.Branch_predict -> Dlx.Progs.all_kernels
      in
      (* Each kernel on its own machine, and all of them in one pack. *)
      List.iter
        (fun (p : Dlx.Progs.t) ->
          agree_dlx ~what:(name ^ " " ^ p.Dlx.Progs.prog_name) (build, variant) [ p ])
        kernels;
      agree_dlx ~what:(name ^ " kernel pack") (build, variant) kernels)
    dlx_machines

let test_storing_sweep_points () =
  let points =
    List.map
      (fun taken_frac ->
        Workload.Gen.generate ~seed:0 ~length:32
          (Workload.Gen.branch_heavy ~taken_frac))
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  List.iter
    (fun (name, variant, build) ->
      if variant <> SD.With_interrupts { sisr = 8 } then
        agree_dlx ~what:(name ^ " seed-0 branch points") (build, variant) points)
    dlx_machines

let test_dlx_mutants () =
  let kernels = Dlx.Progs.[ fib 10; memcpy 8; bubble_sort [ 3; 1; 2 ] ] in
  let t = SD.transform SD.Base ~program:(Dlx.Progs.program (List.hd kernels)) in
  List.iter
    (fun (m : Mutate.mutant) ->
      agree_dlx ~what:("dlx5 mutant " ^ m.Mutate.mut_id)
        ((fun _ -> m.Mutate.mut_tr), SD.Base)
        kernels)
    (List.filteri
       (fun i _ -> i < 8)
       (List.filter
          (fun (m : Mutate.mutant) -> m.Mutate.mut_structural)
          (Mutate.enumerate ~transients:0 ~seed:1 t)))

(* dlx5 with bit 0 of a file's write address stuck at 1: a write to r2
   lands in r3, a store to word 64 in word 65.  The runs write entries
   the reference writes later or never, so comparing at written entries
   alone must still fail, with the texts of a whole-file comparison
   (pinned from the checker that compared every entry). *)
let stuck_address_machine ~file ~bits (p : Dlx.Progs.t) =
  let m = SD.machine ~data:p.Dlx.Progs.data SD.Base ~program:(Dlx.Progs.program p) in
  let stuck (w : Spec.write) =
    if w.Spec.dst <> file then w
    else
      {
        w with
        Spec.wr_addr =
          Option.map
            (fun a -> Hw.Expr.Binop (Hw.Expr.Or, a, Hw.Expr.const_int ~width:bits 1))
            w.Spec.wr_addr;
      }
  in
  Pipeline.Transform.run ~hints:(SD.hints SD.Base)
    {
      m with
      Spec.stages =
        List.map
          (fun (st : Spec.stage) -> { st with Spec.writes = List.map stuck st.Spec.writes })
          m.Spec.stages;
    }

let digest (vs : C.violation list) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (List.map
             (fun (v : C.violation) ->
               Printf.sprintf "%d %d %d %s %s %s" v.C.at_cycle v.C.at_stage v.C.tag
                 v.C.register v.C.expected v.C.got)
             vs)))

let test_stuck_write_address () =
  let zeros k = String.concat "; " (List.init k (fun _ -> "32'd0")) in
  List.iter
    (fun (file, bits, (p : Dlx.Progs.t), comparisons, violations, first, texts) ->
      let program = Dlx.Progs.program p and data = p.Dlx.Progs.data in
      let n = p.Dlx.Progs.dyn_instructions in
      let t = stuck_address_machine ~file ~bits p in
      let reference = SD.ref_trace ~data SD.Base ~program ~instructions:n in
      let init = SD.image ~data ~program () in
      let shape = C.shape t in
      let scalar = C.check_batched ~max_instructions:n ~reference ~init shape in
      let pack =
        (C.check_lanes ~references:[| reference |] ~inits:[| init |] shape).(0)
          .C.lv_report
      in
      List.iter
        (fun (path, (r : C.report)) ->
          let what = Printf.sprintf "%s stuck, %s" file path in
          Alcotest.(check int) (what ^ ": comparisons") comparisons r.C.edge_checks;
          Alcotest.(check int) (what ^ ": violations") violations
            (List.length r.C.violations);
          Option.iter
            (fun first ->
              Alcotest.(check string) (what ^ ": first violation") first
                (pp_violation (List.hd r.C.violations)))
            first;
          Alcotest.(check string) (what ^ ": every violation text") texts
            (digest r.C.violations))
        [ ("scalar", scalar); ("pack", pack) ];
      agree ~what:(file ^ " stuck") t ~references:[| reference |] ~inits:[| init |])
    [
      ( "GPR", 5, Dlx.Progs.fib 10, 260, 67,
        Some
          (Printf.sprintf
             "cycle 5 stage 4 instr 1 register GPR: expected [|32'd0; 32'd10; \
              %s|], got [|32'd0; 32'd10; 32'd0; 32'd10; %s|]"
             (zeros 30) (zeros 28)),
        "e5dc428c319db8f80aabe534bdc86193" );
      ("MEM", 12, Dlx.Progs.memcpy 8, 236, 55, None, "fa75a8ea178387067fa987b7a1557b5f");
    ]

(* Each lane checked against another program's reference: a store the
   reference never makes (test_lanes' store-against-image pair), and
   kernels whose data differ. *)
let test_crossed_references () =
  let body mid =
    Dlx.Asm.
      [
        Insn (Dlx.Isa.Addi (1, 0, 5));
        Insn (Dlx.Isa.Addi (2, 0, 7));
        Insn mid;
        Insn (Dlx.Isa.Add (3, 1, 2));
        Insn (Dlx.Isa.Add (4, 3, 1));
      ]
  in
  let alu = Dlx.Progs.make "alu" (body (Dlx.Isa.Add (0, 1, 2))) in
  let store = Dlx.Progs.make "store" (body (Dlx.Isa.Sw (0, 1, 16))) in
  let memcpy = Dlx.Progs.memcpy 8 and dot = Dlx.Progs.dot_product 6 in
  let reference (p : Dlx.Progs.t) ~instructions =
    SD.ref_trace ~data:p.Dlx.Progs.data SD.Base ~program:(Dlx.Progs.program p)
      ~instructions
  in
  let image (p : Dlx.Progs.t) =
    SD.image ~data:p.Dlx.Progs.data ~program:(Dlx.Progs.program p) ()
  in
  let n = alu.Dlx.Progs.dyn_instructions in
  let m = min memcpy.Dlx.Progs.dyn_instructions dot.Dlx.Progs.dyn_instructions in
  agree ~what:"crossed references"
    (SD.transform SD.Base ~program:(Dlx.Progs.program alu))
    ~references:
      [|
        reference alu ~instructions:n; reference alu ~instructions:n;
        reference store ~instructions:n; reference memcpy ~instructions:m;
        reference dot ~instructions:m;
      |]
    ~inits:[| image alu; image store; image alu; image dot; image memcpy |]

let () =
  Alcotest.run "compare"
    [
      ( "oracle",
        [
          to_alcotest prop_random_machines;
          Alcotest.test_case "every kernel, every DLX" `Quick test_kernels;
          Alcotest.test_case "storing sweep points" `Quick test_storing_sweep_points;
          Alcotest.test_case "DLX structural mutants" `Quick test_dlx_mutants;
          Alcotest.test_case "stuck write address" `Quick test_stuck_write_address;
          Alcotest.test_case "crossed references" `Quick test_crossed_references;
        ] );
    ]
