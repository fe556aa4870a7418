(* The service layer: request/response codecs, the CLI-equivalent
   handler, the content-addressed verdict cache, batch admission. *)

module Req = Service.Request
module Resp = Service.Response
module H = Service.Handler
module MS = Service.Machine_spec
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Machine_spec                                                       *)
(* ------------------------------------------------------------------ *)

let test_machine_spec_roundtrip () =
  List.iter
    (fun m ->
      match MS.of_string (MS.to_string m) with
      | Ok m' -> Alcotest.(check bool) (MS.to_string m) true (m = m')
      | Error msg -> Alcotest.fail msg)
    MS.all;
  Alcotest.(check int) "five machines" 5 (List.length MS.names)

(* [contains s sub]: naive substring search, enough for diagnostics. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_machine_spec_unknown () =
  match MS.of_string "z80" with
  | Ok _ -> Alcotest.fail "z80 accepted"
  | Error msg ->
    Alcotest.(check bool) "names the machine" true
      (contains msg "unknown machine z80");
    List.iter
      (fun name ->
        Alcotest.(check bool) ("lists " ^ name) true (contains msg name))
      MS.names

(* ------------------------------------------------------------------ *)
(* Request codec                                                      *)
(* ------------------------------------------------------------------ *)

(* Floats that survive the JSON text round-trip exactly. *)
let safe_floats = [ 0.0; 0.25; 0.5; 0.75; 1.0; 1.5; 30.0 ]

let gen_request =
  let open QCheck.Gen in
  let gen_id = opt (oneofl [ "r1"; "batch42"; "x" ]) in
  let gen_spec =
    let* machine = oneofl MS.all in
    let* kernel = opt (oneofl [ "fib_10"; "memcpy_8"; "fib" ]) in
    let* program_file = opt (oneofl [ "prog.s"; "a/b.s" ]) in
    let* interlock_only = bool in
    let* impl = oneofl [ Hw.Circuits.Chain; Hw.Circuits.Tree; Hw.Circuits.Bus ] in
    return { Req.machine; kernel; program_file; interlock_only; impl }
  in
  let gen_kind =
    oneof
      [
        (let* verilog = bool in
         return (Req.Transform { verilog }));
        return Req.Verify;
        return Req.Proof;
        return Req.Stats;
        (let* seed = small_nat in
         let* mutants = opt (int_range 1 50) in
         let* transients = small_nat in
         let* hang = bool in
         let* timeout_s = oneofl safe_floats in
         let* bmc = bool in
         return (Req.Campaign { seed; mutants; transients; hang; timeout_s; bmc }));
        (let* axis = oneofl [ Req.Dependency; Req.Branch ] in
         let* points = list_size (int_range 1 4) (oneofl safe_floats) in
         let* length = int_range 1 100 in
         let* seed = small_nat in
         let* lanes = bool in
         return (Req.Sweep { axis; points; length; seed; lanes }));
      ]
  in
  let* id = gen_id in
  let* spec = gen_spec in
  let* kind = gen_kind in
  let* deadline_s = opt (oneofl [ 0.25; 1.5; 30.0 ]) in
  QCheck.Gen.return { Req.id; spec; kind; deadline_s }

let arb_request = QCheck.make ~print:Req.to_string gen_request

let test_request_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"request JSON round-trip" ~count:200 arb_request
       (fun r ->
         match Req.of_string (Req.to_string r) with
         | Ok r' -> Req.equal r r'
         | Error e ->
           QCheck.Test.fail_reportf "rejected own encoding: %s at %s" e.message
             e.path))

let test_request_unknown_field () =
  match
    Req.of_string
      {|{"pipegen":1,"kind":"verify","machine":"toy3","bogus":7}|}
  with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error e ->
    Alcotest.(check string) "path names the key" "$.bogus" e.Req.path

let test_request_kind_mismatched_field () =
  (* A field of another kind is an unknown field for this kind. *)
  match
    Req.of_string {|{"pipegen":1,"kind":"verify","verilog":true}|}
  with
  | Ok _ -> Alcotest.fail "verilog accepted on verify"
  | Error e -> Alcotest.(check string) "path" "$.verilog" e.Req.path

let test_request_version () =
  (match Req.of_string {|{"pipegen":2,"kind":"verify"}|} with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e -> Alcotest.(check string) "path" "$.pipegen" e.Req.path);
  match Req.of_string {|{"kind":"verify"}|} with
  | Ok _ -> Alcotest.fail "missing version accepted"
  | Error e -> Alcotest.(check string) "path" "$.pipegen" e.Req.path

let test_request_wrong_type () =
  match Req.of_string {|{"pipegen":1,"kind":"verify","kernel":3}|} with
  | Ok _ -> Alcotest.fail "int kernel accepted"
  | Error e ->
    Alcotest.(check string) "path" "$.kernel" e.Req.path;
    Alcotest.(check string) "message" "expected a string" e.Req.message

let test_request_sweep_requires_points () =
  match
    Req.of_string {|{"pipegen":1,"kind":"sweep","axis":"dependency"}|}
  with
  | Ok _ -> Alcotest.fail "pointless sweep accepted"
  | Error e -> Alcotest.(check string) "path" "$.points" e.Req.path

(* ------------------------------------------------------------------ *)
(* Response codec                                                     *)
(* ------------------------------------------------------------------ *)

let sample_verify_summary =
  {
    Resp.v_verified = true;
    v_violations = 0;
    v_edge_checks = 12;
    v_liveness_ok = true;
    v_max_gap = 3;
    v_obligations = 9;
    v_obligations_failed = [];
    v_coverage_holes = [ "rule r3 never fired" ];
  }

let sample_row =
  {
    Workload.Stats.label = "p0.5";
    instructions = 32;
    cycles = 48;
    cpi = 1.5;
    speedup_vs_sequential = 2.0;
    fetch_stall_cycles = 4;
    dhaz_cycles = 8;
    ext_cycles = 0;
    rollbacks = 1;
    squashed = 2;
  }

let sample_responses =
  [
    Resp.ok ~id:"t1"
      (Resp.Transformed
         { summary = "m\n"; inventory = "inv\n"; verilog = None });
    Resp.ok
      (Resp.Transformed
         { summary = "m\n"; inventory = "inv\n"; verilog = Some "module x;" });
    Resp.ok ~cached:true
      (Resp.Verdict { summary = sample_verify_summary; text = "VERIFIED\n" });
    Resp.ok (Resp.Proof_text { verified = false; text = "theory T\n" });
    Resp.ok
      (Resp.Stats_report
         { summary = J.Obj [ ("cycles", J.Int 48) ]; text = "cpi 1.5\n" });
    Resp.ok
      (Resp.Campaign_report
         {
           summary =
             {
               Fault.Campaign.mutants = 3;
               detected = 2;
               masked = 1;
               missed = 0;
               timed_out = 0;
               aborted = 0;
             };
           outcomes = J.List [];
           text = "campaign\n";
         });
    Resp.ok (Resp.Sweep_rows { rows = [ (0.5, sample_row) ]; text = "table\n" });
    Resp.fail ~id:"e1" Resp.Usage "unknown machine z80";
    Resp.fail ~phase:"transform" Resp.Internal "boom";
    Resp.fail Resp.Timeout "request timed out after 1.00s";
    Resp.fail Resp.Cancelled "shutting down";
    Resp.fail Resp.Failed_check "verification failed";
    Resp.fail ~id:"o1" ~retry_after_s:0.25 Resp.Overloaded "queue full";
    Resp.fail Resp.Overloaded "degraded: verdict not cached";
  ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      match Resp.of_string (Resp.to_string r) with
      | Ok r' ->
        Alcotest.(check bool)
          ("round-trip: " ^ Resp.to_string r)
          true (Resp.equal r r')
      | Error msg -> Alcotest.fail (Resp.to_string r ^ ": " ^ msg))
    sample_responses

let test_exit_codes () =
  let code r = Resp.exit_code r in
  Alcotest.(check int) "usage" 2 (code (Resp.fail Resp.Usage "x"));
  Alcotest.(check int) "failed_check" 3 (code (Resp.fail Resp.Failed_check "x"));
  Alcotest.(check int) "timeout" 3 (code (Resp.fail Resp.Timeout "x"));
  Alcotest.(check int) "internal" 1 (code (Resp.fail Resp.Internal "x"));
  Alcotest.(check int) "cancelled" 1 (code (Resp.fail Resp.Cancelled "x"));
  Alcotest.(check int) "overloaded" 1 (code (Resp.fail Resp.Overloaded "x"));
  Alcotest.(check int) "verified" 0
    (code
       (Resp.ok (Resp.Verdict { summary = sample_verify_summary; text = "" })));
  Alcotest.(check int) "unverified" 3
    (code
       (Resp.ok
          (Resp.Verdict
             {
               summary = { sample_verify_summary with Resp.v_verified = false };
               text = "";
             })));
  Alcotest.(check bool) "unverified has diagnostic" true
    (Resp.failure_message
       (Resp.ok
          (Resp.Verdict
             {
               summary = { sample_verify_summary with Resp.v_verified = false };
               text = "";
             }))
    = Some "verification failed")

(* ------------------------------------------------------------------ *)
(* Handler: CLI-equivalent output                                     *)
(* ------------------------------------------------------------------ *)

let render f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let spec machine = { Req.default_spec with Req.machine }

(* The pre-service CLI's verify printing, replicated independently:
   the handler must produce these exact bytes. *)
let expected_verify_text s =
  let tr = Workload.Sim.transform s.H.sim in
  let n = Workload.Sim.instructions s.H.sim in
  let v =
    match
      Core.verify_result ?reference:s.H.reference ~max_instructions:n
        ~compiled:(Workload.Sim.compiled s.H.sim) ?disasm:s.H.disasm tr
    with
    | Ok v -> v
    | Error _ -> Alcotest.fail "verification aborted"
  in
  let cov = Pipeline.Coverage.measure ~stop_after:n tr in
  render (fun fmt ->
      Format.fprintf fmt "%a" Proof_engine.Consistency.pp_report
        v.Core.consistency;
      Format.fprintf fmt "%a" Proof_engine.Liveness.pp_report v.Core.liveness;
      Format.fprintf fmt "%a" Pipeline.Coverage.pp cov;
      List.iter
        (Format.fprintf fmt "  coverage hole: %s@.")
        (Pipeline.Coverage.holes cov);
      Format.fprintf fmt "obligations:@.%a" Proof_engine.Obligation.pp
        v.Core.obligations;
      if Core.verified v then Format.fprintf fmt "VERIFIED@."
      else Format.fprintf fmt "VERIFICATION FAILED@.")

let expected_stats_text s =
  let _, summary = Workload.Sim.attribute s.H.sim in
  render (fun fmt ->
      Format.fprintf fmt "%a" Obs.Hazard.pp_summary summary;
      Format.fprintf fmt "%a" Obs.Hazard.pp_decomposition
        (Obs.Hazard.decompose summary))

let handle_text req =
  match (H.handle req).Resp.result with
  | Ok p -> Resp.text p
  | Error e -> Alcotest.fail (Resp.error_message e)

let test_handler_verify_matches_cli () =
  List.iter
    (fun m ->
      let s = H.select (spec m) in
      Alcotest.(check string)
        ("verify text, " ^ MS.to_string m)
        (expected_verify_text s)
        (handle_text (Req.make ~spec:(spec m) Req.Verify)))
    [ MS.Toy3; MS.Dlx5 ]

let test_handler_stats_matches_cli () =
  List.iter
    (fun m ->
      let s = H.select (spec m) in
      Alcotest.(check string)
        ("stats text, " ^ MS.to_string m)
        (expected_stats_text s)
        (handle_text (Req.make ~spec:(spec m) Req.Stats)))
    [ MS.Toy3; MS.Dlx5 ]

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_handler_usage_errors () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "no_such_dir/p.s"
  in
  let unknown_label = Filename.temp_file "usage_label" ".s"
  and runaway = Filename.temp_file "usage_runaway" ".s" in
  write_file unknown_label "  j nolabel\n  nop\n";
  write_file runaway "loop:\n  addi r1, r1, 1\n  j loop\n  nop\n";
  let file path = { (spec MS.Dlx5) with Req.program_file = Some path } in
  Fun.protect
    ~finally:(fun () -> Sys.remove unknown_label; Sys.remove runaway)
  @@ fun () ->
  List.iter
    (fun (s, names) ->
      List.iter
        (fun env ->
          let r = H.handle ?env (Req.make ~spec:s Req.Verify) in
          (match r.Resp.result with
          | Error { Resp.code = Resp.Usage; message; _ } ->
            Alcotest.(check bool) ("names " ^ names) true
              (contains message names)
          | _ -> Alcotest.fail ("expected a usage error naming " ^ names));
          Alcotest.(check int) "exit 2" 2 (Resp.exit_code r))
        [ None; Some (H.create_env ()) ])
    [
      ({ (spec MS.Dlx5) with Req.kernel = Some "nosuch" }, "unknown kernel");
      (* An unreadable program file, like an unparsable one. *)
      (file missing, missing);
      (* A file that assembles to nothing runnable. *)
      (file unknown_label, unknown_label ^ ": unknown label nolabel");
      ( file runaway,
        runaway ^ ": the program did not reach the halt loop within 200k \
                   instructions" );
    ]

(* ------------------------------------------------------------------ *)
(* Verdict cache and shape reuse                                      *)
(* ------------------------------------------------------------------ *)

let payload_bytes r =
  match r.Resp.result with
  | Ok p -> J.to_string ~minify:true (Resp.payload_to_json p)
  | Error e -> Alcotest.fail (Resp.error_message e)

let test_cache_bit_identity () =
  let env = H.create_env () in
  let req = Req.make ~spec:(spec MS.Toy3) Req.Verify in
  let r1 = H.handle ~env req in
  let r2 = H.handle ~env req in
  Alcotest.(check bool) "cold is uncached" false r1.Resp.cached;
  Alcotest.(check bool) "replay is cached" true r2.Resp.cached;
  Alcotest.(check string) "bit-identical payload" (payload_bytes r1)
    (payload_bytes r2);
  Alcotest.(check int) "one hit" 1 (Service.Cache.hits (H.verdicts env));
  (* A different program image must miss. *)
  let other =
    Req.make ~spec:{ (spec MS.Dlx5) with Req.kernel = Some "memcpy_8" }
      Req.Stats
  in
  let r3 = H.handle ~env other in
  Alcotest.(check bool) "different key misses" false r3.Resp.cached

let test_shape_reuse_sound () =
  (* Programs on one machine shape through a shared environment (plan
     compiled once, rebound) must answer exactly like fresh one-shot
     evaluations.  On the speculating machines the rebound shape must
     also resolve the new program's speculation records. *)
  List.iter
    (fun (m, kernels) ->
      let env = H.create_env () in
      List.iter
        (fun kernel ->
          List.iter
            (fun kind ->
              let req =
                Req.make ~spec:{ (spec m) with Req.kernel = Some kernel } kind
              in
              let shared = H.handle ~env req |> payload_bytes in
              let fresh = H.handle req |> payload_bytes in
              Alcotest.(check string)
                (Printf.sprintf "shape reuse, %s %s" (MS.to_string m) kernel)
                fresh shared)
            [ Req.Stats; Req.Verify ])
        kernels)
    [
      (MS.Dlx5, [ "fib_10"; "memcpy_8"; "dep_chain_24" ]);
      (MS.Dlx5_bp, [ "branches_8"; "fib_10" ]);
      (MS.Dlx5_intr, [ "branches_8"; "fib_10" ]);
    ]

let test_campaign_not_cached () =
  let env = H.create_env () in
  let req =
    Req.make ~spec:(spec MS.Toy3)
      (Req.Campaign
         {
           seed = 1;
           mutants = Some 2;
           transients = 1;
           hang = false;
           timeout_s = 10.0;
           bmc = false;
         })
  in
  let r1 = H.handle ~env req in
  let r2 = H.handle ~env req in
  Alcotest.(check bool) "never cached" false (r1.Resp.cached || r2.Resp.cached);
  Alcotest.(check string) "still deterministic" (payload_bytes r1)
    (payload_bytes r2)

(* The verdict-cache key digests the request's inputs — kind and
   parameters, machine shape, resolved program — so every route to
   the same inputs shares an entry and any change to them misses. *)

let key_kinds =
  [
    Req.Verify;
    Req.Stats;
    Req.Proof;
    Req.Transform { verilog = false };
    Req.Transform { verilog = true };
  ]

let test_key_hits_bit_identical () =
  let env = H.create_env () in
  let specs =
    { (spec MS.Dlx5) with Req.interlock_only = true }
    :: List.concat_map
         (fun m ->
           List.map
             (fun impl -> { (spec m) with Req.impl })
             [ Hw.Circuits.Chain; Hw.Circuits.Tree ])
         MS.all
  in
  List.iter
    (fun s ->
      List.iter
        (fun kind ->
          let req = Req.make ~spec:s kind in
          let what = Req.to_string req in
          let first = H.handle ~env req in
          let again = H.handle ~env req in
          Alcotest.(check bool) ("cold, " ^ what) false first.Resp.cached;
          Alcotest.(check bool) ("hit, " ^ what) true again.Resp.cached;
          Alcotest.(check string) ("hit = env-less answer, " ^ what)
            (payload_bytes (H.handle req))
            (payload_bytes again))
        key_kinds)
    specs

(* Two programs of one length and dynamic count that differ in one
   operand: only the words tell them apart, and B has no load-use
   stall. *)
let body_a = "  lw r1, 0(r0)\n  add r2, r1, r1\n  halt\n"
let body_b = "  lw r1, 0(r0)\n  add r2, r3, r3\n  halt\n"

let test_key_routes () =
  let env = H.create_env () in
  let cached req = (H.handle ~env req).Resp.cached in
  let stats s = Req.make ~spec:s Req.Stats in
  let kernel k = { (spec MS.Dlx5) with Req.kernel = Some k } in
  Alcotest.(check bool) "fib_10 cold" false (cached (stats (kernel "fib_10")));
  Alcotest.(check bool) "fib after fib_10 hits" true
    (cached (stats (kernel "fib")));
  let path = Filename.temp_file "key_route" ".s"
  and other = Filename.temp_file "key_route_other" ".s" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path; Sys.remove other)
    (fun () ->
      let file p = stats { (spec MS.Dlx5) with Req.program_file = Some p } in
      write_file path body_a;
      let r_a = H.handle ~env (file path) in
      Alcotest.(check bool) "file cold" false r_a.Resp.cached;
      Alcotest.(check bool) "file again hits" true (cached (file path));
      write_file other body_a;
      Alcotest.(check bool) "same body, other path hits" true
        (cached (file other));
      write_file path body_b;
      let r_b = H.handle ~env (file path) in
      Alcotest.(check bool) "rewritten file misses" false r_b.Resp.cached;
      Alcotest.(check string) "answers the new program"
        (payload_bytes (H.handle (file path)))
        (payload_bytes r_b);
      Alcotest.(check bool) "new program, new answer" true
        (payload_bytes r_a <> payload_bytes r_b))

let test_key_misses () =
  let env = H.create_env () in
  let base = { (spec MS.Dlx5) with Req.kernel = Some "memcpy_8" } in
  let sweep ?(axis = Req.Dependency) ?(points = [ 0.5 ]) ?(length = 8)
      ?(seed = 1) ?(lanes = false) () =
    Req.Sweep { axis; points; length; seed; lanes }
  in
  let cached s kind = (H.handle ~env (Req.make ~spec:s kind)).Resp.cached in
  Alcotest.(check bool) "cold" false (cached base Req.Verify);
  Alcotest.(check bool) "repeat hits" true (cached base Req.Verify);
  List.iter
    (fun (what, s, kind) ->
      Alcotest.(check bool) (what ^ " misses") false (cached s kind))
    [
      ("impl", { base with Req.impl = Hw.Circuits.Tree }, Req.Verify);
      ("interlock_only", { base with Req.interlock_only = true }, Req.Verify);
      ("kind", base, Req.Stats);
      ("kernel", { base with Req.kernel = Some "fib_10" }, Req.Verify);
      ("machine", { base with Req.machine = MS.Dlx5_bp }, Req.Verify);
    ];
  Alcotest.(check bool) "sweep cold" false (cached base (sweep ()));
  Alcotest.(check bool) "lanes alone hits" true
    (cached base (sweep ~lanes:true ()));
  List.iter
    (fun (what, kind) ->
      Alcotest.(check bool) ("sweep " ^ what ^ " misses") false
        (cached base kind))
    [
      ("axis", sweep ~axis:Req.Branch ());
      ("points", sweep ~points:[ 0.25 ] ());
      ("length", sweep ~length:9 ());
      ("seed", sweep ~seed:2 ());
    ]

(* A hit builds nothing: no transform, reference trace, rebind or
   compile — only the program lookup, one digest and one table probe,
   a few hundred minor words.  Selecting a machine on a warm shape
   allocates 4,700 (toy3) to 38,000 (dlx5_intr), so the bound catches
   a hit that builds one.  Minor words allocated in this domain are
   deterministic: the bound is a count, not a timing.  A sweep on a
   machine without one is refused before anything is built. *)
let test_hit_builds_nothing () =
  let env = H.create_env () in
  let sweep =
    Req.Sweep
      { axis = Req.Dependency; points = [ 0.5 ]; length = 8; seed = 1;
        lanes = false }
  in
  List.iter
    (fun m ->
      List.iter
        (fun kind ->
          let req = Req.make ~spec:(spec m) kind in
          ignore (H.handle ~env req);
          let before = Gc.minor_words () in
          let r = H.handle ~env req in
          let words = Gc.minor_words () -. before in
          let what = Req.to_string req in
          (match (r.Resp.result, Option.is_some (MS.variant m), kind) with
          | Error { Resp.code = Resp.Usage; _ }, false, Req.Sweep _ -> ()
          | _ -> Alcotest.(check bool) ("hit, " ^ what) true r.Resp.cached);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.0f minor words < 4000" what words)
            true (words < 4_000.))
        [ Req.Verify; Req.Stats; Req.Proof; Req.Transform { verilog = false };
          sweep ])
    MS.all

(* ------------------------------------------------------------------ *)
(* Cancellation is a typed result                                     *)
(* ------------------------------------------------------------------ *)

let test_timeout_is_typed () =
  let cancel = Exec.Cancel.create ~timeout_s:0.0 () in
  let r = H.handle ~cancel (Req.make ~spec:(spec MS.Dlx5) Req.Verify) in
  (match r.Resp.result with
  | Error { Resp.code = Resp.Timeout; _ } -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Resp.error_message e)
  | Ok _ -> Alcotest.fail "expired token did not cancel");
  Alcotest.(check int) "timeout exits 3" 3 (Resp.exit_code r)

let test_parent_token () =
  let parent = Exec.Cancel.create () in
  let child = Exec.Cancel.with_parent parent () in
  Alcotest.(check bool) "fresh child" false (Exec.Cancel.cancelled child);
  Exec.Cancel.cancel parent;
  Alcotest.(check bool) "parent trip reaches child" true
    (Exec.Cancel.cancelled child);
  (* and it latched: the child now trips on its own flag *)
  Alcotest.(check bool) "latched" true (Exec.Cancel.cancelled child)

let test_cancel_reason () =
  let t = Exec.Cancel.create () in
  Alcotest.(check bool) "armed has no reason" true
    (Exec.Cancel.reason t = None);
  Exec.Cancel.cancel t;
  Alcotest.(check bool) "explicit" true
    (Exec.Cancel.reason t = Some Exec.Cancel.Explicit);
  let d = Exec.Cancel.create ~timeout_s:0.0 () in
  (* the deadline compare is strict, so let the clock tick past it *)
  Unix.sleepf 0.002;
  Alcotest.(check bool) "deadline trips" true (Exec.Cancel.cancelled d);
  Alcotest.(check bool) "deadline reason" true
    (Exec.Cancel.reason d = Some Exec.Cancel.Deadline);
  (* The first cause latches: a later explicit cancel cannot turn a
     timeout into a cancellation. *)
  Exec.Cancel.cancel d;
  Alcotest.(check bool) "first cause latches" true
    (Exec.Cancel.reason d = Some Exec.Cancel.Deadline);
  (* A child inherits the reason of the ancestor that tripped it. *)
  let p = Exec.Cancel.create () in
  let c = Exec.Cancel.with_parent p ~timeout_s:60.0 () in
  Exec.Cancel.cancel p;
  Alcotest.(check bool) "child trips with parent" true
    (Exec.Cancel.cancelled c);
  Alcotest.(check bool) "child inherits reason" true
    (Exec.Cancel.reason c = Some Exec.Cancel.Explicit)

(* ------------------------------------------------------------------ *)
(* Batch admission                                                    *)
(* ------------------------------------------------------------------ *)

let test_process_batch () =
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  let env = H.create_env () in
  let lines =
    [
      {|{"pipegen":1,"id":"a","kind":"verify","machine":"toy3"}|};
      {|not json|};
      {|{"pipegen":1,"id":"b","kind":"verify","machine":"toy3"}|};
    ]
  in
  match Service.Serve.process_batch ~env ~pool lines with
  | [ ra; rbad; rb ] ->
    Alcotest.(check (option string)) "order: a" (Some "a") ra.Resp.id;
    Alcotest.(check (option string)) "order: b" (Some "b") rb.Resp.id;
    (match rbad.Resp.result with
    | Error { Resp.code = Resp.Usage; _ } -> ()
    | _ -> Alcotest.fail "malformed line must be a usage error");
    Alcotest.(check bool) "duplicate coalesced" true rb.Resp.cached;
    Alcotest.(check string) "coalesced payload identical" (payload_bytes ra)
      (payload_bytes rb)
  | rs -> Alcotest.fail (Printf.sprintf "expected 3 responses, got %d" (List.length rs))

(* Two spellings of one question in one batch — a kernel prefix and
   its full name, a scalar sweep and its [lanes] twin — share a
   verdict key, so the batch evaluates each pair once: the first in
   input order leads, the second follows with the leader's payload
   bytes and [cached:true].  At -j 2 the two forms would otherwise
   evaluate concurrently and which one answered [cached] would be a
   race, so the whole output must also repeat exactly. *)
let test_coalesce_on_verdict_key () =
  let sweep id lanes =
    Printf.sprintf
      {|{"pipegen":1,"id":"%s","kind":"sweep","machine":"dlx5","axis":"dependency","points":[0.25,0.75],"length":8,"seed":1%s}|}
      id
      (if lanes then {|,"lanes":true|} else "")
  in
  let lines =
    [
      {|{"pipegen":1,"id":"k1","kind":"verify","machine":"dlx5","kernel":"fib"}|};
      sweep "s1" false;
      {|{"pipegen":1,"id":"k2","kind":"verify","machine":"dlx5","kernel":"fib_10"}|};
      sweep "s2" true;
    ]
  in
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  let run () =
    let env = H.create_env () in
    let rs = Service.Serve.process_batch ~env ~pool lines in
    Alcotest.(check int) "one evaluation per pair" 2
      (Service.Cache.misses (H.verdicts env));
    (match rs with
    | [ k1; s1; k2; s2 ] ->
      List.iter
        (fun (leader, follower) ->
          Alcotest.(check bool) "leader evaluated" false leader.Resp.cached;
          Alcotest.(check bool) "follower cached" true follower.Resp.cached;
          Alcotest.(check string) "follower carries the leader's payload"
            (payload_bytes leader) (payload_bytes follower))
        [ (k1, k2); (s1, s2) ];
      Alcotest.(check (list (option string))) "input order"
        [ Some "k1"; Some "s1"; Some "k2"; Some "s2" ]
        (List.map (fun r -> r.Resp.id) rs)
    | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs));
    List.map Resp.to_string rs
  in
  let first = run () in
  for _ = 2 to 20 do
    Alcotest.(check (list string)) "same output every run" first (run ())
  done

(* A verify's coverage report runs on the selection's compiled plan:
   one request compiles its machine once, with or without the serve
   shape cache. *)
let test_verify_compiles_once () =
  let compiles f =
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
    let r = f () in
    (match r.Resp.result with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Resp.error_message e));
    List.length
      (List.filter
         (fun (s : Obs.Span.record) -> s.Obs.Span.span_name = "pipesem.compile")
         (Obs.Span.records ()))
  in
  let req = Req.make ~spec:(spec MS.Dlx5) Req.Verify in
  Alcotest.(check int) "one-shot" 1 (compiles (fun () -> H.handle req));
  Alcotest.(check int) "shape cache" 1
    (compiles (fun () -> H.handle ~env:(H.create_env ()) req))

(* Serve resolves each request's program once: admission prepares it
   (the key the batch coalesces on) and evaluation takes the prepared
   value.  Four lines, of which three lead, prepare four times; an
   evaluation that resolved again would add one per leader. *)
let test_serve_resolves_once () =
  let lines =
    [
      {|{"pipegen":1,"id":"a","kind":"verify","machine":"dlx5","kernel":"fib"}|};
      {|{"pipegen":1,"id":"b","kind":"stats","machine":"dlx5","kernel":"fib_10"}|};
      {|{"pipegen":1,"id":"c","kind":"verify","machine":"dlx5","kernel":"fib_10"}|};
      {|{"pipegen":1,"id":"d","kind":"verify","machine":"dlx5","kernel":"nope"}|};
    ]
  in
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  Obs.Span.set_enabled true;
  let rs =
    Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
    Service.Serve.process_batch ~env:(H.create_env ()) ~pool lines
  in
  Alcotest.(check int) "one prepare per request" 4
    (List.length
       (List.filter
          (fun (s : Obs.Span.record) -> s.Obs.Span.span_name = "handler.prepare")
          (Obs.Span.records ())));
  match rs with
  | [ a; b; c; d ] ->
    Alcotest.(check bool) "a evaluated" true (Result.is_ok a.Resp.result);
    Alcotest.(check bool) "b evaluated" true (Result.is_ok b.Resp.result);
    Alcotest.(check bool) "c coalesced onto a" true c.Resp.cached;
    (match d.Resp.result with
    | Error { Resp.code = Resp.Usage; _ } -> ()
    | _ -> Alcotest.fail "an unknown kernel must answer Usage")
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Degraded mode and journal warm-start (handler level)               *)
(* ------------------------------------------------------------------ *)

let test_cache_only_mode () =
  let env = H.create_env () in
  let req = Req.make ~spec:(spec MS.Toy3) Req.Verify in
  let r_miss = H.handle ~env ~cache_only:true req in
  (match r_miss.Resp.result with
  | Error { Resp.code = Resp.Overloaded; _ } -> ()
  | _ -> Alcotest.fail "cache-only miss must answer Overloaded");
  let r_fill = H.handle ~env req in
  let r_hit = H.handle ~env ~cache_only:true req in
  Alcotest.(check bool) "degraded hit is cached" true r_hit.Resp.cached;
  Alcotest.(check string) "degraded hit bit-identical" (payload_bytes r_fill)
    (payload_bytes r_hit)

let test_warm_start () =
  let env1 = H.create_env () in
  let req = Req.make ~spec:(spec MS.Toy3) Req.Verify in
  let r1 = H.handle ~env:env1 req in
  let payload =
    match r1.Resp.result with
    | Ok p -> p
    | Error e -> Alcotest.fail (Resp.error_message e)
  in
  (* A "restarted" environment warmed from the journaled payload must
     answer from the cache, bit-identically. *)
  let env2 = H.create_env () in
  H.warm ~env:env2 req payload;
  let r2 = H.handle ~env:env2 req in
  Alcotest.(check bool) "warmed key hits" true r2.Resp.cached;
  Alcotest.(check string) "warmed payload bit-identical" (payload_bytes r1)
    (payload_bytes r2);
  (* A request that reads an assembly file is not warmed: the file
     may have been rewritten since its payload was journaled. *)
  let path = Filename.temp_file "warm_file" ".s" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let req =
    Req.make ~spec:{ (spec MS.Dlx5) with Req.program_file = Some path }
      Req.Stats
  in
  write_file path body_a;
  let payload_a =
    match (H.handle req).Resp.result with
    | Ok p -> p
    | Error e -> Alcotest.fail (Resp.error_message e)
  in
  write_file path body_b;
  let env3 = H.create_env () in
  H.warm ~env:env3 req payload_a;
  let r3 = H.handle ~env:env3 req in
  Alcotest.(check bool) "rewritten file misses" false r3.Resp.cached;
  Alcotest.(check string) "answers the file as it is now"
    (payload_bytes (H.handle req))
    (payload_bytes r3)

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)
(* ------------------------------------------------------------------ *)

module Srv = Service.Serve
module Jl = Service.Journal

let kernels = [| "fib_10"; "memcpy_8"; "dep_chain_24" |]

(* The [i]-th member of a family of cheap requests that are pairwise
   distinct up to their id for i in [0, 12): none of them coalesce,
   and none share a verdict-cache key (machine, kernel and kind all
   matter to the evaluation — Toy3 is excluded because it ignores the
   kernel, which would alias the keys). *)
let family_request ?deadline_s ~id i =
  let machine = if i mod 2 = 0 then MS.Dlx5 else MS.Dlx6 in
  let s = { (spec machine) with Req.kernel = Some kernels.(i / 2 mod 3) } in
  let kind = if i / 6 mod 2 = 0 then Req.Stats else Req.Verify in
  Req.make ~id ?deadline_s ~spec:s kind

let family_line ?deadline_s ~id i =
  Req.to_string (family_request ?deadline_s ~id i)

let test_admission_shed () =
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  let env = H.create_env () in
  let adm = Srv.make_admission ~max_queue:2 ~retries:0 () in
  let lines =
    List.init 4 (fun i -> family_line ~id:(Printf.sprintf "q%d" i) i)
  in
  let shed0 = Obs.Counters.get Obs.Counters.Serve_shed in
  let rs = Srv.process_batch ~env ~pool ~admission:adm lines in
  Alcotest.(check int) "4 responses" 4 (List.length rs);
  List.iteri
    (fun i r ->
      match (i < 2, r.Resp.result) with
      | true, Ok _ -> ()
      | true, Error e ->
        Alcotest.fail ("kept leader failed: " ^ Resp.error_message e)
      | ( false,
          Error { Resp.code = Resp.Overloaded; retry_after_s = Some ra; _ } )
        ->
        Alcotest.(check bool) "retry-after positive" true (ra > 0.0)
      | false, _ -> Alcotest.fail "overflow leader not shed Overloaded")
    rs;
  Alcotest.(check int) "serve_shed bumped per shed" (shed0 + 2)
    (Obs.Counters.get Obs.Counters.Serve_shed)

let test_admission_deadline_reject () =
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  let env = H.create_env () in
  (* ewma starts at 50ms: the second leader's projected queue wait
     (25ms) dwarfs a 1ms client deadline, so it is shed up front
     instead of timing out after queueing. *)
  let adm = Srv.make_admission () in
  let lines =
    [ family_line ~id:"d0" 0; family_line ~deadline_s:0.001 ~id:"d1" 1 ]
  in
  match Srv.process_batch ~env ~pool ~admission:adm lines with
  | [ r0; r1 ] -> (
    (match r0.Resp.result with
    | Ok _ -> ()
    | Error e ->
      Alcotest.fail ("deadline-free leader failed: " ^ Resp.error_message e));
    match r1.Resp.result with
    | Error { Resp.code = Resp.Overloaded; message; _ } ->
      Alcotest.(check bool) "names the deadline" true
        (contains message "deadline")
    | _ -> Alcotest.fail "unmeetable deadline was not shed early")
  | rs ->
    Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length rs))

let test_admission_degraded () =
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  let env = H.create_env () in
  let adm = Srv.make_admission ~max_queue:1 ~retries:0 () in
  (* Three consecutive shedding batches trip cache-only mode. *)
  for b = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "not yet degraded before batch %d" b)
      false (Srv.degraded adm);
    ignore
      (Srv.process_batch ~env ~pool ~admission:adm
         [ family_line ~id:"h0" 0; family_line ~id:"h1" 1 ]
        : Resp.t list)
  done;
  Alcotest.(check bool) "degraded after 3 hot batches" true (Srv.degraded adm);
  (* Degraded: an uncached verdict is answered Overloaded without
     being evaluated... *)
  (match
     Srv.process_batch ~env ~pool ~admission:adm [ family_line ~id:"h2" 2 ]
   with
  | [ r ] -> (
    match r.Resp.result with
    | Error { Resp.code = Resp.Overloaded; _ } -> ()
    | _ -> Alcotest.fail "degraded cache miss was evaluated")
  | _ -> Alcotest.fail "one response expected");
  (* ...while a journaled/previously-evaluated one is still served. *)
  (match
     Srv.process_batch ~env ~pool ~admission:adm [ family_line ~id:"h3" 0 ]
   with
  | [ r ] -> (
    match r.Resp.result with
    | Ok _ -> Alcotest.(check bool) "served from cache" true r.Resp.cached
    | Error e ->
      Alcotest.fail ("cached verdict refused: " ^ Resp.error_message e))
  | _ -> Alcotest.fail "one response expected");
  (* A quiet batch (nothing shed, queue at most half full) resets. *)
  ignore (Srv.process_batch ~env ~pool ~admission:adm [ {|not json|} ]
           : Resp.t list);
  Alcotest.(check bool) "quiet batch resets the mode" false (Srv.degraded adm)

let test_retry_outlasts_crash_budget () =
  let cfg =
    {
      Exec.Chaos.default_config with
      Exec.Chaos.seed = 11;
      crash = 1.0;
      crash_budget = Some 2;
    }
  in
  Exec.Pool.with_pool ~size:2 ~chaos:(Exec.Chaos.create cfg) @@ fun pool ->
  let env = H.create_env () in
  let adm = Srv.make_admission ~retries:2 () in
  let retries0 = Obs.Counters.get Obs.Counters.Serve_retries in
  let lines =
    List.init 4 (fun i -> family_line ~id:(Printf.sprintf "c%d" i) i)
  in
  let rs = Srv.process_batch ~env ~pool ~admission:adm lines in
  List.iter
    (fun (r : Resp.t) ->
      match r.Resp.result with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail
          ("a crash outlived the retry budget: " ^ Resp.error_message e))
    rs;
  Alcotest.(check int) "serve_retries = crash budget" (retries0 + 2)
    (Obs.Counters.get Obs.Counters.Serve_retries)

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "pipegen_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_journal_roundtrip () =
  with_temp_file @@ fun path ->
  let j = Jl.open_ path in
  let seqs = Jl.append_admits j [ "ra"; "rb"; "rc" ] in
  Alcotest.(check (list int)) "fresh seqs" [ 0; 1; 2 ] seqs;
  Jl.append_done j [ (0, "resp-a"); (2, "resp-c") ];
  Jl.close j;
  (match Jl.read path with
  | [ e0; e1; e2 ] ->
    Alcotest.(check string) "e0 line" "ra" e0.Jl.line;
    Alcotest.(check (option string)) "e0 done" (Some "resp-a") e0.Jl.response;
    Alcotest.(check string) "e1 line" "rb" e1.Jl.line;
    Alcotest.(check (option string)) "e1 pending" None e1.Jl.response;
    Alcotest.(check (option string)) "e2 done" (Some "resp-c") e2.Jl.response
  | es -> Alcotest.fail (Printf.sprintf "expected 3 entries, got %d"
                           (List.length es)));
  (* Reopen: numbering continues past the existing max. *)
  let j2 = Jl.open_ path in
  Alcotest.(check (list int)) "seq continues" [ 3 ]
    (Jl.append_admits j2 [ "rd" ]);
  Jl.close j2;
  (* A torn trailing record (mid-write crash) is skipped, not fatal. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"journal":1,"op":"admit","seq":9,"line":"torn|};
  close_out oc;
  let entries = Jl.read path in
  Alcotest.(check int) "torn line skipped" 4 (List.length entries);
  Alcotest.(check bool) "rd still pending" true
    (List.exists
       (fun e -> e.Jl.line = "rd" && e.Jl.response = None)
       entries);
  (* Truncation (the clean-shutdown path) restarts numbering. *)
  let j3 = Jl.open_ path in
  Jl.truncate j3;
  Alcotest.(check (list int)) "post-truncate seqs restart" [ 0 ]
    (Jl.append_admits j3 [ "re" ]);
  Jl.close j3

let test_journal_recovery_shape () =
  (* The serve loop's crash-recovery contract at the library level:
     journal a batch, complete only part of it, "crash", and check that
     the journal hands back exactly the unfinished line for
     re-admission — whose re-evaluation in a fresh environment is
     byte-identical to the lost original. *)
  Exec.Pool.with_pool ~size:2 @@ fun pool ->
  with_temp_file @@ fun path ->
  let lines = [ family_line ~id:"j0" 0; family_line ~id:"j1" 1 ] in
  let j = Jl.open_ path in
  let seqs = Jl.append_admits j lines in
  let env = H.create_env () in
  let rs = Srv.process_batch ~env ~pool lines in
  let first = Resp.to_string (List.hd rs) in
  let second = Resp.to_string (List.nth rs 1) in
  (* the crash lands after journaling only the first verdict *)
  Jl.append_done j [ (List.hd seqs, first) ];
  Jl.close j;
  (* restart *)
  let completed, pending =
    List.partition (fun e -> e.Jl.response <> None) (Jl.read path)
  in
  (match completed with
  | [ e ] ->
    Alcotest.(check (option string)) "completed replays verbatim"
      (Some first) e.Jl.response
  | _ -> Alcotest.fail "exactly one completed entry expected");
  match pending with
  | [ e ] ->
    let env2 = H.create_env () in
    (match Srv.process_batch ~env:env2 ~pool [ e.Jl.line ] with
    | [ r ] ->
      Alcotest.(check string) "re-evaluation byte-identical" second
        (Resp.to_string r)
    | _ -> Alcotest.fail "one replayed response expected")
  | _ -> Alcotest.fail "exactly one pending entry expected"

(* ------------------------------------------------------------------ *)
(* Chaos soaks                                                        *)
(* ------------------------------------------------------------------ *)

(* [n] requests cycling through the 12-member distinct family: plenty
   of coalescing, every leader evaluated on a chaos-armed pool. *)
let soak_batch n =
  List.init n (fun i -> family_line ~id:(Printf.sprintf "k%d" i) (i mod 12))

let run_soak ?chaos n =
  let work0 = Obs.Counters.work_snapshot () in
  let responses =
    Exec.Pool.with_pool ~size:3 ?chaos @@ fun pool ->
    let env = H.create_env () in
    let adm = Srv.make_admission ~max_queue:(2 * n) ~retries:3 () in
    Srv.process_batch ~env ~pool ~admission:adm (soak_batch n)
  in
  let work1 = Obs.Counters.work_snapshot () in
  let delta =
    List.map2
      (fun (k0, v0) (k1, v1) ->
        assert (k0 = k1);
        (k0, v1 - v0))
      work0 work1
  in
  (List.map Resp.to_string responses, delta)

let test_soak_delay_chaos () =
  (* Delays-only chaos perturbs scheduling, never semantics: the
     responses and the WORK.* counter deltas must both be
     bit-identical to the clean run. *)
  let n = 60 in
  let clean, work_clean = run_soak n in
  let chaos =
    Exec.Chaos.create
      {
        Exec.Chaos.default_config with
        Exec.Chaos.seed = 42;
        delay = 0.5;
        delay_s = 0.0005;
        alloc = 0.25;
        alloc_words = 1 lsl 12;
      }
  in
  let chaotic, work_chaos = run_soak ~chaos n in
  Alcotest.(check (list string)) "responses bit-identical" clean chaotic;
  Alcotest.(check (list (pair string int))) "WORK.* bit-identical" work_clean
    work_chaos

let test_soak_crash_chaos () =
  (* Crash + wedge + kill chaos within the retry budget: every request
     is answered exactly once, byte-identically to the clean run —
     nothing lost, duplicated or corrupted. *)
  let n = 60 in
  let clean, _ = run_soak n in
  let chaos =
    Exec.Chaos.create
      {
        Exec.Chaos.default_config with
        Exec.Chaos.seed = 1234;
        crash = 0.05;
        crash_budget = Some 3;
        delay = 0.1;
        delay_s = 0.0005;
        wedge = 0.05;
        wedge_s = 0.002;
        wedge_budget = Some 4;
        kill = 0.25;
        kill_budget = Some 2;
      }
  in
  let chaotic, _ = run_soak ~chaos n in
  Alcotest.(check int) "no response lost or duplicated" n
    (List.length chaotic);
  Alcotest.(check (list string)) "responses bit-identical under faults"
    clean chaotic;
  Alcotest.(check bool) "faults were actually injected" true
    (Exec.Chaos.injected chaos > 0)

(* ------------------------------------------------------------------ *)
(* Client disconnects                                                 *)
(* ------------------------------------------------------------------ *)

let test_epipe_contained () =
  (* A client that hangs up mid-response must surface as the typed
     [Client_gone] (failing one connection), not as a SIGPIPE process
     kill — the regression that motivated ignoring SIGPIPE in
     [Serve.run]. *)
  let prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (Sys.set_signal Sys.sigpipe) prev)
  @@ fun () ->
  let r, w = Unix.pipe () in
  Unix.close r;
  (match Srv.write_all w "late response\n" with
  | () -> Alcotest.fail "write to a gone client succeeded"
  | exception Srv.Client_gone -> ());
  Unix.close w

let () =
  Alcotest.run "service"
    [
      ( "machine_spec",
        [
          Alcotest.test_case "round-trip" `Quick test_machine_spec_roundtrip;
          Alcotest.test_case "unknown name" `Quick test_machine_spec_unknown;
        ] );
      ( "request",
        [
          test_request_roundtrip;
          Alcotest.test_case "unknown field" `Quick test_request_unknown_field;
          Alcotest.test_case "mismatched kind field" `Quick
            test_request_kind_mismatched_field;
          Alcotest.test_case "version" `Quick test_request_version;
          Alcotest.test_case "wrong type" `Quick test_request_wrong_type;
          Alcotest.test_case "sweep needs points" `Quick
            test_request_sweep_requires_points;
        ] );
      ( "response",
        [
          Alcotest.test_case "round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "handler",
        [
          Alcotest.test_case "verify = CLI" `Quick
            test_handler_verify_matches_cli;
          Alcotest.test_case "stats = CLI" `Quick test_handler_stats_matches_cli;
          Alcotest.test_case "usage errors" `Quick test_handler_usage_errors;
        ] );
      ( "cache",
        [
          Alcotest.test_case "bit-identical replay" `Quick
            test_cache_bit_identity;
          Alcotest.test_case "shape reuse sound" `Quick test_shape_reuse_sound;
          Alcotest.test_case "campaign not cached" `Slow
            test_campaign_not_cached;
          Alcotest.test_case "key: hits bit-identical" `Quick
            test_key_hits_bit_identical;
          Alcotest.test_case "key: routes to one program" `Quick
            test_key_routes;
          Alcotest.test_case "key: changed inputs miss" `Quick
            test_key_misses;
          Alcotest.test_case "hit builds nothing" `Quick
            test_hit_builds_nothing;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "timeout is typed" `Quick test_timeout_is_typed;
          Alcotest.test_case "parent token" `Quick test_parent_token;
          Alcotest.test_case "trip reason" `Quick test_cancel_reason;
        ] );
      ( "serve",
        [
          Alcotest.test_case "batch admission" `Quick test_process_batch;
          Alcotest.test_case "coalesce on the verdict key" `Quick
            test_coalesce_on_verdict_key;
          Alcotest.test_case "verify compiles once" `Quick
            test_verify_compiles_once;
          Alcotest.test_case "serve resolves each request once" `Quick
            test_serve_resolves_once;
          Alcotest.test_case "shed past max-queue" `Quick test_admission_shed;
          Alcotest.test_case "deadline early reject" `Quick
            test_admission_deadline_reject;
          Alcotest.test_case "degraded mode hysteresis" `Quick
            test_admission_degraded;
          Alcotest.test_case "retry outlasts crash budget" `Quick
            test_retry_outlasts_crash_budget;
          Alcotest.test_case "EPIPE contained" `Quick test_epipe_contained;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "cache-only mode" `Quick test_cache_only_mode;
          Alcotest.test_case "journal warm-start" `Quick test_warm_start;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "crash-recovery shape" `Quick
            test_journal_recovery_shape;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "delays keep WORK bit-identical" `Slow
            test_soak_delay_chaos;
          Alcotest.test_case "crash soak loses nothing" `Slow
            test_soak_crash_chaos;
        ] );
    ]
