(* The fault subsystem (lib/fault): mutant enumeration and sampling,
   detection-coverage classification, campaign determinism across pool
   sizes, checkpoint/resume, the wedged-engine timeout path — and the
   headline property: a single-bit flip in an architecturally visible
   pipeline register of the DLX is always detected or proved masked,
   never silently missed. *)

module Mutate = Fault.Mutate
module Campaign = Fault.Campaign

let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

let toy_tr () = Core.Toy.transform ~program:Core.Toy.default_program ()
let toy_instructions = List.length Core.Toy.default_program

let toy_target () = Campaign.make_target ~instructions:toy_instructions (toy_tr ())

(* ------------------------------------------------------------------ *)
(* Property: visible-register bit flips are never missed               *)
(* ------------------------------------------------------------------ *)

(* The DLX example under a small kernel.  PC and DPC are the base
   machine's architecturally visible scalar registers; a transient
   flip in either must be flagged by some checker (detected) or leave
   the visible final state bit-identical to the golden run (masked).
   A green verdict with diverging state would be a proof-engine false
   negative — the class the campaign exists to rule out. *)
let dlx_flip_property =
  let p = Dlx.Progs.fib 5 in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p)
  in
  let target =
    Campaign.make_target ~instructions:p.Dlx.Progs.dyn_instructions tr
  in
  QCheck.Test.make ~name:"DLX visible-register flip: detected or masked"
    ~count:10
    (QCheck.make
       ~print:(fun (reg, bit, cycle) ->
         Printf.sprintf "QCHECK_SEED=%d flip:%s[%d]@c%d" qcheck_seed reg bit
           cycle)
       QCheck.Gen.(
         triple (oneofl [ "PC"; "DPC" ]) (int_bound 31) (int_range 1 40)))
    (fun (register, bit, at_cycle) ->
      let m =
        Mutate.apply (Mutate.Transient_flip { register; bit; at_cycle }) tr
      in
      let outcomes, summary = Campaign.run target [ m ] in
      match outcomes with
      | [ o ] ->
        (match o.Campaign.out_class with
        | Campaign.Detected | Campaign.Masked -> true
        | Campaign.Missed | Campaign.Timed_out | Campaign.Aborted -> false)
        && Campaign.ok summary
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Enumeration and sampling                                            *)
(* ------------------------------------------------------------------ *)

let test_enumerate_deterministic () =
  let ms () = Mutate.enumerate ~transients:4 ~seed:7 ~hang:true (toy_tr ()) in
  let ids l = List.map (fun m -> m.Mutate.mut_id) l in
  Alcotest.(check (list string))
    "same seed, same mutant space" (ids (ms ())) (ids (ms ()));
  let m = ms () in
  Alcotest.(check bool) "ids unique" true
    (List.sort_uniq compare (ids m) = List.sort compare (ids m));
  Alcotest.(check bool) "has a hang mutant" true
    (List.exists (fun m -> m.Mutate.mut_fault = Mutate.Hang { at_cycle = 5 }) m)

let test_sample_prefix () =
  let xs = List.init 20 Fun.id in
  let s = Mutate.sample ~seed:3 ~count:8 xs in
  Alcotest.(check int) "prefix length" 8 (List.length s);
  Alcotest.(check (list int)) "deterministic in the seed" s
    (Mutate.sample ~seed:3 ~count:8 xs);
  Alcotest.(check bool) "members come from the input" true
    (List.for_all (fun x -> List.mem x xs) s);
  Alcotest.(check int) "count past the end = whole list" 20
    (List.length (Mutate.sample ~seed:3 ~count:99 xs))

(* ------------------------------------------------------------------ *)
(* Campaign classification on the toy machine                          *)
(* ------------------------------------------------------------------ *)

let test_toy_campaign_no_misses () =
  (* The full structural + stall-engine + transient space: every mutant
     lands in detected or masked — the engine has no false negatives on
     the toy machine — and structural stuck-hit mutants specifically
     are caught. *)
  let mutants = Mutate.enumerate ~transients:4 ~seed:0 (toy_tr ()) in
  let outcomes, summary = Campaign.run (toy_target ()) mutants in
  Alcotest.(check int) "one outcome per mutant" (List.length mutants)
    (List.length outcomes);
  Alcotest.(check int) "no misses" 0 summary.Campaign.missed;
  Alcotest.(check int) "no aborts" 0 summary.Campaign.aborted;
  Alcotest.(check bool) "campaign ok" true (Campaign.ok summary);
  Alcotest.(check bool) "something was detected" true
    (summary.Campaign.detected > 0);
  List.iter
    (fun o ->
      let is_stuck_hit =
        String.length o.Campaign.out_id >= 4
        && String.sub o.Campaign.out_id 0 4 = "hit:"
      in
      if is_stuck_hit then
        Alcotest.(check bool)
          (o.Campaign.out_id ^ " detected")
          true
          (o.Campaign.out_class = Campaign.Detected))
    outcomes

(* [pipegen campaign toy3 --seed s] class counts (detected, masked) for
   seeds 0-15, recorded when livelocked mutants still ran to a
   10,000-cycle cap; --bmc reads the same.  Stopping those runs at the
   liveness bound moves no mutant to another class. *)
let toy3_classes =
  [| (20, 13); (19, 14); (20, 13); (21, 12); (20, 13); (21, 12); (22, 11);
     (22, 11); (21, 12); (20, 13); (21, 12); (20, 13); (20, 13); (25, 8);
     (21, 12); (20, 13) |]

let test_toy3_campaign_classes () =
  List.iter
    (fun bmc ->
      Array.iteri
        (fun seed (detected, masked) ->
          let req =
            Service.Request.make
              ~spec:
                {
                  Service.Request.default_spec with
                  Service.Request.machine = Service.Machine_spec.Toy3;
                }
              (Service.Request.Campaign
                 { seed; mutants = None; transients = 8; hang = false;
                   timeout_s = 30.0; bmc })
          in
          let name =
            Printf.sprintf "seed %d%s" seed (if bmc then " --bmc" else "")
          in
          match (Service.Handler.handle req).Service.Response.result with
          | Ok (Service.Response.Campaign_report { summary = s; _ }) ->
            Alcotest.(check (list int)) name
              [ 33; detected; masked; 0; 0; 0 ]
              [ s.Campaign.mutants; s.Campaign.detected; s.Campaign.masked;
                s.Campaign.missed; s.Campaign.timed_out; s.Campaign.aborted ]
          | Ok _ | Error _ -> Alcotest.failf "%s: no campaign report" name)
        toy3_classes)
    [ false; true ]

(* [pipegen campaign dlx5_intr --seed 1 -n 1] samples a forwarding
   mutant whose GPRb mux selects are swapped.  Its structural check
   compares two 32-bit candidates bit by bit, and one BDD for the OR
   of all 32 bit differences grows exponentially under [Equiv]'s
   variable order, so the check must test the bits one at a time.  The
   report pins the counterexample: it must not depend on how much
   memory the process may take. *)
let test_dlx_muxswap_counterexample () =
  let req =
    Service.Request.make
      ~spec:
        {
          Service.Request.default_spec with
          Service.Request.machine = Service.Machine_spec.Dlx5_intr;
        }
      (Service.Request.Campaign
         { seed = 1; mutants = Some 1; transients = 8; hang = false;
           timeout_s = 30.0; bmc = false })
  in
  match (Service.Handler.handle req).Service.Response.result with
  | Ok (Service.Response.Campaign_report { summary = s; text; _ }) ->
    Alcotest.(check (list int)) "one mutant, detected" [ 1; 1; 0; 0; 0; 0 ]
      [ s.Campaign.mutants; s.Campaign.detected; s.Campaign.masked;
        s.Campaign.missed; s.Campaign.timed_out; s.Campaign.aborted ];
    Alcotest.(check string) "report"
      "detected   muxswap:$g_1_GPRb:$hit_1_GPRb_2<->$hit_1_GPRb_3 \
       obligation TOP.1_GPRb: differs from the priority specification: \
       DIFFER at {$cand_1_GPRb_2=0, $cand_1_GPRb_3=1, $cand_1_GPRb_4=0, \
       $hit_1_GPRb_2=0, $hit_1_GPRb_3=1, $hit_1_GPRb_4=0, IR.1=0}: left \
       32'd0, ...[truncated]\n\
       1 mutants: 1 detected, 0 masked, 0 MISSED, 0 timed out, 0 aborted\n"
      text
  | Ok _ | Error _ -> Alcotest.fail "no campaign report"

let test_campaign_deterministic_across_pools () =
  let mutants =
    Mutate.sample ~seed:5 ~count:8
      (Mutate.enumerate ~transients:4 ~seed:5 (toy_tr ()))
  in
  let serial = Campaign.run (toy_target ()) mutants in
  let parallel =
    Exec.Pool.with_pool ~size:4 @@ fun pool ->
    Campaign.run ~pool (toy_target ()) mutants
  in
  Alcotest.(check bool) "outcomes bit-identical at -j 4" true
    (serial = parallel)

let test_hang_times_out_without_aborting () =
  (* The deliberately wedged engine: cancelled by the per-mutant
     deadline, classified, and the rest of the batch is unharmed. *)
  let tr = toy_tr () in
  let mutants =
    [
      Mutate.apply (Mutate.Hang { at_cycle = 5 }) tr;
      Mutate.apply
        (Mutate.Stuck_wire { wire = Mutate.Stall; stage = 1; value = true })
        tr;
    ]
  in
  (* The budget must dwarf the sibling's honest runtime (milliseconds)
     or a loaded machine times the sibling out too and the count
     flakes; the wedged mutant burns the full budget either way. *)
  let outcomes, summary =
    Exec.Pool.with_pool ~size:2 @@ fun pool ->
    Campaign.run ~pool ~timeout_s:5.0
      (Campaign.make_target ~instructions:toy_instructions tr)
      mutants
  in
  Alcotest.(check int) "one timeout" 1 summary.Campaign.timed_out;
  Alcotest.(check int) "no aborts" 0 summary.Campaign.aborted;
  Alcotest.(check bool) "campaign still ok" true (Campaign.ok summary);
  match outcomes with
  | [ hang; sibling ] ->
    Alcotest.(check bool) "hang slot timed out" true
      (hang.Campaign.out_class = Campaign.Timed_out);
    Alcotest.(check bool) "sibling classified normally" true
      (sibling.Campaign.out_class = Campaign.Detected)
  | _ -> Alcotest.fail "expected two outcomes in mutant order"

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let mutants =
    Mutate.sample ~seed:1 ~count:4
      (Mutate.enumerate ~transients:2 ~seed:1 (toy_tr ()))
  in
  let path = Filename.temp_file "fault_ckpt" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let outcomes, _ = Campaign.run ~checkpoint:path (toy_target ()) mutants in
  (* The file written after the last batch parses back to the same
     outcomes, in campaign order. *)
  match Result.bind (Obs.Json.read_file ~path) Campaign.of_json with
  | Error msg -> Alcotest.fail ("checkpoint unreadable: " ^ msg)
  | Ok back ->
    Alcotest.(check bool) "checkpoint round-trips" true (back = outcomes)

let test_resume_skips_finished_mutants () =
  (* Seed the checkpoint with a fabricated outcome for one mutant: a
     resumed campaign must keep it verbatim (the mutant was not
     re-run) and classify only the remaining ones. *)
  let mutants =
    Mutate.sample ~seed:2 ~count:3
      (Mutate.enumerate ~transients:2 ~seed:2 (toy_tr ()))
  in
  let first = List.hd mutants in
  let canned =
    {
      Campaign.out_id = first.Mutate.mut_id;
      out_fault = "canned";
      out_class = Campaign.Masked;
      out_evidence = "from-checkpoint";
    }
  in
  let path = Filename.temp_file "fault_resume" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Json.write_file ~path (Campaign.to_json [ canned ]);
  let outcomes, summary =
    Campaign.run ~checkpoint:path ~resume:true (toy_target ()) mutants
  in
  Alcotest.(check int) "every mutant has an outcome" (List.length mutants)
    (List.length outcomes);
  Alcotest.(check int) "summary covers all" (List.length mutants)
    summary.Campaign.mutants;
  (match outcomes with
  | o :: _ ->
    Alcotest.(check string) "prior outcome kept verbatim" "from-checkpoint"
      o.Campaign.out_evidence
  | [] -> Alcotest.fail "no outcomes");
  (* Without resume, the checkpoint is ignored and the mutant re-runs. *)
  let fresh, _ = Campaign.run ~checkpoint:path (toy_target ()) mutants in
  match fresh with
  | o :: _ ->
    Alcotest.(check bool) "no-resume re-classifies" true
      (o.Campaign.out_evidence <> "from-checkpoint")
  | [] -> Alcotest.fail "no outcomes"

let () =
  Alcotest.run "fault"
    [
      ( "mutate",
        [
          Alcotest.test_case "enumerate deterministic" `Quick
            test_enumerate_deterministic;
          Alcotest.test_case "sample prefix" `Quick test_sample_prefix;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "toy campaign: no misses" `Quick
            test_toy_campaign_no_misses;
          Alcotest.test_case "toy3 class counts, seeds 0-15" `Quick
            test_toy3_campaign_classes;
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_campaign_deterministic_across_pools;
          Alcotest.test_case "hang times out without aborting" `Quick
            test_hang_times_out_without_aborting;
          Alcotest.test_case "dlx5_intr mux swap: a counterexample" `Quick
            test_dlx_muxswap_counterexample;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "resume skips finished mutants" `Quick
            test_resume_skips_finished_mutants;
        ] );
      ("properties", List.map to_alcotest [ dlx_flip_property ]);
    ]
