(* The observability subsystem: JSON round-trips, the metrics
   registry, span collection, the bench export schema, and — the core
   property — exact hazard-attribution cycle accounting on the DLX. *)

let json = Alcotest.testable Obs.Json.pp ( = )

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bools", List [ Bool true; Bool false ]);
          ("ints", List [ Int 0; Int (-42); Int max_int ]);
          ( "floats",
            List [ Float 0.1; Float 1e-300; Float (-.Float.pi); Float 3.0 ] );
          ("str", String "a \"quoted\"\nline\twith \\ and \x07 control");
          ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
        ])
  in
  Alcotest.check json "pretty round-trip" v
    (Obs.Json.parse_exn (Obs.Json.to_string v));
  Alcotest.check json "minified round-trip" v
    (Obs.Json.parse_exn (Obs.Json.to_string ~minify:true v))

let test_json_parse () =
  Alcotest.check json "unicode escape"
    (Obs.Json.String "a\xc3\xa9b")
    (Obs.Json.parse_exn {|"aéb"|});
  Alcotest.check json "number classes"
    (Obs.Json.List [ Obs.Json.Int 12; Obs.Json.Float 1.5; Obs.Json.Float 1e2 ])
    (Obs.Json.parse_exn "[12, 1.5, 1e2]");
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "" ]

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"retired instructions" "retired" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "same name shares state" 5
    (Obs.Metrics.counter_value (Obs.Metrics.counter reg "retired"));
  let g = Obs.Metrics.gauge reg "cpi" in
  Obs.Metrics.set g 1.25;
  Alcotest.(check (float 0.0)) "gauge" 1.25 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram reg "stall_run_length" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 1.0; 3.0; 9.0 ];
  Alcotest.(check int) "histogram count" 4 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 0.0)) "histogram sum" 14.0
    (Obs.Metrics.histogram_sum h);
  (match Obs.Json.member "counters" (Obs.Metrics.to_json reg) with
  | Some (Obs.Json.Obj fields) ->
    Alcotest.(check bool) "counter serialized" true
      (List.mem_assoc "retired" fields)
  | _ -> Alcotest.fail "counters object missing");
  Alcotest.(check bool) "csv has rows" true
    (String.length (Obs.Metrics.to_csv reg) > 0);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: retired already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge reg "retired"))

(* ------------------------------------------------------------------ *)
(* Spans and trace events                                              *)
(* ------------------------------------------------------------------ *)

let test_spans () =
  Obs.Span.set_enabled true;
  let r =
    Obs.Span.with_span "outer" (fun () ->
        Obs.Span.with_span ~args:[ ("k", "1") ] "inner" (fun () -> 7))
  in
  Obs.Span.set_enabled false;
  Alcotest.(check int) "value through" 7 r;
  (* set_enabled false keeps the records until the next enable. *)
  match Obs.Span.records () with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first" "inner" inner.Obs.Span.span_name;
    Alcotest.(check int) "inner depth" 1 inner.Obs.Span.depth;
    Alcotest.(check string) "outer second" "outer" outer.Obs.Span.span_name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
    let trace = Obs.Trace_event.to_json [ inner; outer ] in
    (match Obs.Json.member "traceEvents" trace with
    | Some (Obs.Json.List evs) ->
      (* two spans + the process_name metadata record *)
      Alcotest.(check int) "trace events" 3 (List.length evs)
    | _ -> Alcotest.fail "traceEvents missing");
    Alcotest.check json "trace JSON parses" trace
      (Obs.Json.parse_exn (Obs.Trace_event.to_string [ inner; outer ]))
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_spans_disabled () =
  Obs.Span.reset ();
  let r = Obs.Span.with_span "ignored" (fun () -> 3) in
  Alcotest.(check int) "value through" 3 r;
  Alcotest.(check int) "no records" 0 (List.length (Obs.Span.records ()))

(* ------------------------------------------------------------------ *)
(* Bench export                                                        *)
(* ------------------------------------------------------------------ *)

let test_export_roundtrip () =
  let entries =
    [
      Obs.Export.entry ~cpi:1.25 ~instructions:64 ~cycles:80
        ~breakdown:[ ("dhaz:stage1:1_GPRa", 0.1875); ("startup", 0.0625) ]
        "C1.fib_10";
      Obs.Export.entry ~ns_per_run:1234.5 "TIMING.F2_dlx_transformation";
      Obs.Export.entry ~ns_per_run:2.5 ~higher_is_better:true "PERF.ratio";
      Obs.Export.entry "empty";
    ]
  in
  (match Obs.Export.of_json (Obs.Export.to_json entries) with
  | Ok back -> Alcotest.(check bool) "round-trip" true (back = entries)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  (* Unknown schema versions are rejected. *)
  match
    Obs.Export.of_json
      (Obs.Json.Obj
         [
           ("schema", Obs.Json.String "pipeline-bench/999");
           ("experiments", Obs.Json.Obj []);
         ])
  with
  | Ok _ -> Alcotest.fail "accepted unknown schema"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Work counters: the facility itself                                  *)
(* ------------------------------------------------------------------ *)

let test_counters_basic () =
  Obs.Counters.reset ();
  Obs.Counters.bump Obs.Counters.Plan_runs;
  Obs.Counters.add Obs.Counters.Plan_ops 41;
  Obs.Counters.add Obs.Counters.Plan_ops 1;
  Alcotest.(check int) "bump" 1 (Obs.Counters.get Obs.Counters.Plan_runs);
  Alcotest.(check int) "add" 42 (Obs.Counters.get Obs.Counters.Plan_ops);
  Obs.Counters.record_max Obs.Counters.Pool_queue_hwm 7;
  Obs.Counters.record_max Obs.Counters.Pool_queue_hwm 3;
  Alcotest.(check int) "record_max keeps the max" 7
    (Obs.Counters.get Obs.Counters.Pool_queue_hwm);
  Obs.Counters.with_disabled (fun () ->
      Obs.Counters.bump Obs.Counters.Plan_runs;
      Alcotest.(check bool) "disabled inside" false (Obs.Counters.enabled ()));
  Alcotest.(check bool) "re-enabled after" true (Obs.Counters.enabled ());
  Alcotest.(check int) "no counting while disabled" 1
    (Obs.Counters.get Obs.Counters.Plan_runs);
  let work = Obs.Counters.work_snapshot () in
  Alcotest.(check (option int))
    "snapshot row" (Some 42)
    (List.assoc_opt "plan_ops" work);
  Alcotest.(check bool) "work snapshot has no sched rows" false
    (List.mem_assoc "pool_tasks" work);
  Alcotest.(check bool) "sched snapshot has the hwm" true
    (List.mem_assoc "pool_queue_hwm" (Obs.Counters.sched_snapshot ()));
  Obs.Counters.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counters.get Obs.Counters.Plan_ops)

(* ------------------------------------------------------------------ *)
(* Per-commit history: JSONL round-trip and the trend gate             *)
(* ------------------------------------------------------------------ *)

(* A miniature export: deterministic WORK scores, an informational
   SCHED row, one ns-like timing row and one speedup row. *)
let entries_v n =
  [
    Obs.Export.entry
      ~breakdown:[ ("plan_ops", float_of_int n); ("sim_cycles", 100.0) ]
      "WORK.counters";
    Obs.Export.entry ~breakdown:[ ("pool_tasks", 5.0) ] "SCHED.counters";
    Obs.Export.entry ~ns_per_run:1000.0 "PERF.sweep_serial";
    Obs.Export.entry ~ns_per_run:2.0 "PERF.par_sweep_speedup";
  ]

let record ?(commit = "abc1234") ?(epoch = 1754000000.0) entries =
  { Obs.History.commit; epoch; entries }

let test_history_roundtrip () =
  let path = Filename.temp_file "pipegen_hist" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r1 = record ~commit:"aaaa111" (entries_v 10) in
  let r2 = record ~commit:"bbbb222" ~epoch:1754100000.5 (entries_v 11) in
  Obs.History.append ~path r1;
  Obs.History.append ~path r2;
  (match Obs.History.read ~path with
  | Ok back -> Alcotest.(check bool) "append/read round-trip" true (back = [ r1; r2 ])
  | Error msg -> Alcotest.failf "read failed: %s" msg);
  (* One minified line per record. *)
  let lines =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per record" 2 (List.length lines);
  (* Unknown history schemas are rejected. *)
  match
    Obs.History.record_of_json
      (Obs.Json.Obj [ ("schema", Obs.Json.String "pipeline-bench-history/999") ])
  with
  | Ok _ -> Alcotest.fail "accepted unknown history schema"
  | Error _ -> ()

let test_trend_gate_work () =
  let history = [ record (entries_v 10) ] in
  Alcotest.(check int) "identical run passes" 0
    (List.length (Obs.History.trend_gate ~history (entries_v 10)));
  (* A changed WORK row gates from the very first record; the SCHED row
     and the under-populated timing rows never do. *)
  match Obs.History.trend_gate ~history (entries_v 11) with
  | [ g ] ->
    Alcotest.(check string) "row" "WORK.counters.plan_ops" g.Obs.History.g_name;
    Alcotest.(check bool) "kind" true (g.Obs.History.g_kind = Obs.History.Work);
    Alcotest.(check (float 1e-9)) "baseline" 10.0 g.Obs.History.g_baseline;
    Alcotest.(check (float 1e-9)) "current" 11.0 g.Obs.History.g_current
  | gates -> Alcotest.failf "expected 1 gate, got %d" (List.length gates)

let test_trend_gate_missing_work_row () =
  let history = [ record (entries_v 10) ] in
  let current =
    [ Obs.Export.entry ~breakdown:[ ("plan_ops", 10.0) ] "WORK.counters" ]
  in
  let gates = Obs.History.trend_gate ~history current in
  Alcotest.(check bool) "disappeared WORK row is gated" true
    (List.exists
       (fun (g : Obs.History.gate) ->
         g.Obs.History.g_name = "WORK.counters.sim_cycles"
         && Float.is_nan g.Obs.History.g_current)
       gates)

let test_trend_gate_timing_band () =
  let hist ns = record [ Obs.Export.entry ~ns_per_run:ns "PERF.sweep_serial" ] in
  let current ns = [ Obs.Export.entry ~ns_per_run:ns "PERF.sweep_serial" ] in
  Alcotest.(check int) "too few records: not gated" 0
    (List.length
       (Obs.History.trend_gate ~history:[ hist 100.; hist 100. ]
          (current 1000.)));
  let history = [ hist 120.; hist 100.; hist 110. ] in
  (* Window best is 100; the default tol 0.5 allows up to 150. *)
  Alcotest.(check int) "within the band" 0
    (List.length (Obs.History.trend_gate ~history (current 149.)));
  (match Obs.History.trend_gate ~history (current 151.) with
  | [ g ] ->
    Alcotest.(check string) "row" "PERF.sweep_serial.ns_per_run"
      g.Obs.History.g_name;
    Alcotest.(check bool) "kind" true (g.Obs.History.g_kind = Obs.History.Timing);
    Alcotest.(check (float 1e-9)) "baseline is the window min" 100.0
      g.Obs.History.g_baseline
  | gates -> Alcotest.failf "expected 1 gate, got %d" (List.length gates));
  Alcotest.(check int) "wider tolerance passes" 0
    (List.length (Obs.History.trend_gate ~tol:1.0 ~history (current 151.)))

let test_trend_gate_speedup_direction () =
  let row s =
    Obs.Export.entry ~ns_per_run:s ~higher_is_better:true
      "PERF.par_sweep_speedup"
  in
  let hist s = record [ row s ] in
  let current s = [ row s ] in
  let history = [ hist 1.8; hist 2.0; hist 1.9 ] in
  Alcotest.(check int) "getting faster passes" 0
    (List.length (Obs.History.trend_gate ~history (current 3.0)));
  (* Window best is 2.0; tol 0.5 puts the floor at 1.0. *)
  Alcotest.(check int) "above the floor passes" 0
    (List.length (Obs.History.trend_gate ~history (current 1.05)));
  match Obs.History.trend_gate ~history (current 0.9) with
  | [ g ] ->
    Alcotest.(check (float 1e-9)) "baseline is the window max" 2.0
      g.Obs.History.g_baseline
  | gates -> Alcotest.failf "expected 1 gate, got %d" (List.length gates)

(* The direction travels with the row: a ratio whose name says nothing
   of speed gates downward when it is marked higher-is-better, and a
   row named "speedup" but not marked gates as a time. *)
let test_trend_gate_row_direction () =
  let gates ~higher name ~current =
    let row v = Obs.Export.entry ~ns_per_run:v ~higher_is_better:higher name in
    List.length
      (Obs.History.trend_gate
         ~history:[ record [ row 1.8 ]; record [ row 2.0 ]; record [ row 1.9 ] ]
         [ row current ])
  in
  Alcotest.(check int) "a ratio that drops fails" 1
    (gates ~higher:true "PERF.batched_over_rebuild" ~current:0.9);
  Alcotest.(check int) "a ratio that rises passes" 0
    (gates ~higher:true "PERF.batched_over_rebuild" ~current:3.0);
  Alcotest.(check int) "an unmarked row that rises fails" 1
    (gates ~higher:false "PERF.lookalike_speedup" ~current:3.2);
  Alcotest.(check int) "an unmarked row that drops passes" 0
    (gates ~higher:false "PERF.lookalike_speedup" ~current:0.9);
  (* and the direction survives the history file *)
  let e =
    Obs.Export.entry ~ns_per_run:2.0 ~higher_is_better:true "PERF.ratio"
  in
  match Obs.Export.of_json (Obs.Export.to_json [ e ]) with
  | Ok [ back ] ->
    Alcotest.(check bool) "direction round-trips" true back.Obs.Export.higher_is_better
  | Ok _ | Error _ -> Alcotest.fail "export round-trip"

let test_trend_gate_window () =
  let hist ns = record [ Obs.Export.entry ~ns_per_run:ns "PERF.x" ] in
  let history = [ hist 100.; hist 1000.; hist 1000. ] in
  let current = [ Obs.Export.entry ~ns_per_run:1400.0 "PERF.x" ] in
  Alcotest.(check int) "old fast record aged out of the window" 0
    (List.length (Obs.History.trend_gate ~k:2 ~min_records:2 ~history current));
  Alcotest.(check bool) "gated once the window reaches it" true
    (Obs.History.trend_gate ~k:3 ~min_records:2 ~history current <> [])

let test_history_select_diff () =
  let r1 = record ~commit:"aaaa111" (entries_v 10) in
  let r2 = record ~commit:"bbbb222" (entries_v 12) in
  let records = [ r1; r2 ] in
  (match Obs.History.select records "-1" with
  | Ok r -> Alcotest.(check string) "-1 is newest" "bbbb222" r.Obs.History.commit
  | Error e -> Alcotest.fail e);
  (match Obs.History.select records "0" with
  | Ok r -> Alcotest.(check string) "0 is oldest" "aaaa111" r.Obs.History.commit
  | Error e -> Alcotest.fail e);
  (match Obs.History.select records "aaa" with
  | Ok r ->
    Alcotest.(check string) "commit prefix" "aaaa111" r.Obs.History.commit
  | Error e -> Alcotest.fail e);
  (match Obs.History.select records "zzz" with
  | Ok _ -> Alcotest.fail "bogus selector accepted"
  | Error _ -> ());
  let rows = Obs.History.diff r1 r2 in
  Alcotest.(check bool) "diff finds the changed row" true
    (List.exists
       (fun (d : Obs.History.diff_row) ->
         d.Obs.History.d_name = "WORK.counters.plan_ops")
       rows);
  Alcotest.(check bool) "diff skips identical rows" false
    (List.exists
       (fun (d : Obs.History.diff_row) ->
         d.Obs.History.d_name = "PERF.sweep_serial.ns_per_run")
       rows)

(* ------------------------------------------------------------------ *)
(* Hazard attribution: exact cycle accounting on the DLX               *)
(* ------------------------------------------------------------------ *)

let run_attribution ?options ?(variant = Dlx.Seq_dlx.Base) p =
  let tr =
    Dlx.Seq_dlx.transform ?options ~data:p.Dlx.Progs.data variant
      ~program:(Dlx.Progs.program p)
  in
  Pipeline.Attribution.run ~stop_after:p.Dlx.Progs.dyn_instructions tr

let check_exact_accounting label (result : Pipeline.Pipesem.result)
    (s : Obs.Hazard.summary) =
  Alcotest.(check bool)
    (label ^ " completed") true
    (result.Pipeline.Pipesem.outcome = Pipeline.Pipesem.Completed);
  let stats = result.Pipeline.Pipesem.stats in
  Alcotest.(check int)
    (label ^ " cycles agree") stats.Pipeline.Pipesem.cycles s.Obs.Hazard.total_cycles;
  Alcotest.(check int)
    (label ^ " retired agree") stats.Pipeline.Pipesem.retired s.Obs.Hazard.retired;
  (* The integer identities behind CPI = 1 + sum of components. *)
  let lost =
    List.fold_left
      (fun acc (c : Obs.Hazard.component) -> acc + c.Obs.Hazard.cycles)
      0 s.Obs.Hazard.lost
  in
  Alcotest.(check int)
    (label ^ " cycles = retiring + lost")
    s.Obs.Hazard.total_cycles
    (s.Obs.Hazard.retiring_cycles + lost);
  Alcotest.(check int)
    (label ^ " retired = retiring + coincident")
    s.Obs.Hazard.retired
    (s.Obs.Hazard.retiring_cycles + s.Obs.Hazard.multi_retire_extra);
  let d = Obs.Hazard.decompose s in
  let total =
    List.fold_left
      (fun acc (_, v) -> acc +. v)
      d.Obs.Hazard.base d.Obs.Hazard.terms
  in
  Alcotest.(check (float 1e-9))
    (label ^ " decomposition sums to CPI")
    (Pipeline.Pipesem.cpi stats) total;
  Alcotest.(check (float 1e-9))
    (label ^ " cpi_total consistent")
    (Pipeline.Pipesem.cpi stats) d.Obs.Hazard.cpi_total

let test_accounting_forwarding () =
  let result, s = run_attribution (Dlx.Progs.fib 10) in
  check_exact_accounting "fwd" result s;
  (* Full forwarding absorbs fib's hazards: only pipeline fill remains,
     and the GPR operands are fed by the synthesized bypass paths. *)
  List.iter
    (fun (c : Obs.Hazard.component) ->
      Alcotest.(check bool) "only startup lost" true
        (c.Obs.Hazard.cause = Obs.Hazard.Startup))
    s.Obs.Hazard.lost;
  Alcotest.(check bool) "forwarding hits recorded" true
    (List.exists
       (fun ((rule, source), n) ->
         rule = "1_GPRa" && source <> "reg" && n > 0)
       s.Obs.Hazard.hits)

let test_accounting_interlock () =
  let options =
    {
      Pipeline.Fwd_spec.mode = Pipeline.Fwd_spec.Interlock_only;
      impl = Hw.Circuits.Chain;
    }
  in
  let result, s = run_attribution ~options (Dlx.Progs.fib 10) in
  check_exact_accounting "interlock" result s;
  (* Without forwarding the interlock must stall; the lost cycles name
     the stage and operand rule that raised each hazard. *)
  Alcotest.(check bool) "dhaz components present" true
    (List.exists
       (fun (c : Obs.Hazard.component) ->
         match c.Obs.Hazard.cause with
         | Obs.Hazard.Dhaz { stage = _; operand } -> operand <> ""
         | _ -> false)
       s.Obs.Hazard.lost)

let test_accounting_speculation () =
  let result, s =
    run_attribution ~variant:Dlx.Seq_dlx.Branch_predict
      (Dlx.Progs.branch_heavy 8)
  in
  check_exact_accounting "speculation" result s;
  Alcotest.(check bool) "squash cycles attributed" true
    (List.exists
       (fun (c : Obs.Hazard.component) ->
         c.Obs.Hazard.cause = Obs.Hazard.Rollback_squash
         && c.Obs.Hazard.cycles > 0)
       s.Obs.Hazard.lost)

let test_accounting_ext_stalls () =
  let p = Dlx.Progs.memcpy 8 in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p)
  in
  let ext = Workload.Sweep.memory_wait_states ~every:4 ~wait:2 in
  let t = Pipeline.Attribution.create tr in
  let result =
    Pipeline.Pipesem.run ~ext
      ~callbacks:(Pipeline.Attribution.callbacks t)
      ~stop_after:p.Dlx.Progs.dyn_instructions tr
  in
  let s = Pipeline.Attribution.finalize t in
  check_exact_accounting "ext" result s;
  Alcotest.(check bool) "ext stall cycles attributed" true
    (List.exists
       (fun (c : Obs.Hazard.component) ->
         c.Obs.Hazard.cause = Obs.Hazard.Ext_stall && c.Obs.Hazard.cycles > 0)
       s.Obs.Hazard.lost)

let test_summary_json () =
  let _, s = run_attribution (Dlx.Progs.fib 5) in
  let j = Obs.Hazard.summary_to_json s in
  (* The serialized summary is valid JSON and carries the accounting. *)
  let j' = Obs.Json.parse_exn (Obs.Json.to_string j) in
  Alcotest.check json "summary JSON round-trips" j j';
  match Obs.Json.member "cycles" j' with
  | Some v ->
    Alcotest.(check (option int))
      "total cycles" (Some s.Obs.Hazard.total_cycles) (Obs.Json.to_int_opt v)
  | None -> Alcotest.fail "cycles missing"

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser" `Quick test_json_parse;
        ] );
      ("metrics", [ Alcotest.test_case "registry" `Quick test_metrics ]);
      ( "spans",
        [
          Alcotest.test_case "collection" `Quick test_spans;
          Alcotest.test_case "disabled" `Quick test_spans_disabled;
        ] );
      ("export", [ Alcotest.test_case "round-trip" `Quick test_export_roundtrip ]);
      ("counters", [ Alcotest.test_case "facility" `Quick test_counters_basic ]);
      ( "history",
        [
          Alcotest.test_case "JSONL round-trip" `Quick test_history_roundtrip;
          Alcotest.test_case "WORK rows gate exactly" `Quick
            test_trend_gate_work;
          Alcotest.test_case "disappeared WORK row" `Quick
            test_trend_gate_missing_work_row;
          Alcotest.test_case "timing tolerance band" `Quick
            test_trend_gate_timing_band;
          Alcotest.test_case "speedup gates downward" `Quick
            test_trend_gate_speedup_direction;
          Alcotest.test_case "direction is the row's" `Quick
            test_trend_gate_row_direction;
          Alcotest.test_case "window bounds the trend" `Quick
            test_trend_gate_window;
          Alcotest.test_case "select and diff" `Quick test_history_select_diff;
        ] );
      ( "hazard attribution",
        [
          Alcotest.test_case "forwarding" `Quick test_accounting_forwarding;
          Alcotest.test_case "interlock-only" `Quick test_accounting_interlock;
          Alcotest.test_case "speculation" `Quick test_accounting_speculation;
          Alcotest.test_case "external stalls" `Quick test_accounting_ext_stalls;
          Alcotest.test_case "summary JSON" `Quick test_summary_json;
        ] );
    ]
