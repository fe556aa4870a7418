(* The domain pool (Exec.Pool): order preservation and bit-identical
   results at every pool size, exception propagation with batch
   draining, pool reuse, nested (re-entrant) maps, utilization stats —
   and the sweep determinism regression: parallel sweep rows must equal
   the serial rows field for field. *)

module Pool = Exec.Pool

(* Explicit qcheck seeding: QCHECK_SEED when set, a fixed default
   otherwise, threaded into every property and printed with each
   counterexample so a failure replays with
   `QCHECK_SEED=<n> dune runtest`. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

(* ------------------------------------------------------------------ *)
(* Property: Pool.map is List.map, at any pool size                    *)
(* ------------------------------------------------------------------ *)

let prop_map_is_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map (order, j in {1,2,4})"
    ~count:60
    (QCheck.make
       ~print:(fun (j, xs) ->
         Printf.sprintf "QCHECK_SEED=%d j=%d [%s]" qcheck_seed j
           (String.concat "; " (List.map string_of_int xs)))
       QCheck.Gen.(
         pair (oneofl [ 1; 2; 4 ]) (list_size (int_bound 64) small_int)))
    (fun (j, xs) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      Pool.with_pool ~size:j (fun pool -> Pool.map pool f xs) = List.map f xs)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_exception_propagation () =
  Pool.with_pool ~size:4 @@ fun pool ->
  let inputs = List.init 8 Fun.id in
  (match
     Pool.map pool
       (fun x -> if x = 3 then failwith "boom3" else x * 2)
       inputs
   with
  | (_ : int list) -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "message" "boom3" msg);
  (* The batch drained and the pool survived: the next map works. *)
  Alcotest.(check (list int)) "pool reusable after failure"
    (List.map (fun x -> x + 1) inputs)
    (Pool.map pool (fun x -> x + 1) inputs)

let test_pool_reuse_and_stats () =
  Pool.with_pool ~size:3 @@ fun pool ->
  Pool.reset_stats pool;
  let n_batches = 10 and n_tasks = 24 in
  for i = 1 to n_batches do
    let expect = List.init n_tasks (fun x -> x * i) in
    Alcotest.(check (list int))
      (Printf.sprintf "batch %d" i)
      expect
      (Pool.map pool (fun x -> x * i) (List.init n_tasks Fun.id))
  done;
  let stats = Pool.stats pool in
  Alcotest.(check int) "one stats row per worker" 3 (List.length stats);
  Alcotest.(check int) "every task accounted"
    (n_batches * n_tasks)
    (List.fold_left (fun a (s : Pool.domain_stats) -> a + s.Pool.tasks) 0 stats)

let test_nested_map () =
  (* A task that itself maps on the same pool: the helping caller makes
     this deadlock-free even when all workers are busy. *)
  Pool.with_pool ~size:2 @@ fun pool ->
  let result =
    Pool.map pool
      (fun row -> Pool.map pool (fun col -> (row * 10) + col) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (list int)))
    "nested rows"
    [ [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
    result

let test_map_reduce_ordered () =
  (* The fold must run in input order regardless of completion order:
     string concatenation is order-sensitive. *)
  Pool.with_pool ~size:4 @@ fun pool ->
  let s =
    Pool.map_reduce pool
      ~map:string_of_int
      ~fold:(fun acc x -> acc ^ x)
      ~init:""
      (List.init 10 Fun.id)
  in
  Alcotest.(check string) "ordered fold" "0123456789" s

let test_size_one_inline () =
  let pool = Pool.create ~size:1 () in
  Alcotest.(check int) "size" 1 (Pool.size pool);
  Alcotest.(check (list int)) "inline map" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_shutdown_rejects () =
  let pool = Pool.create ~size:2 () in
  Alcotest.(check (list int)) "works before" [ 1 ]
    (Pool.map pool Fun.id [ 1 ]);
  Pool.shutdown pool;
  match Pool.map pool Fun.id [ 1 ] with
  | (_ : int list) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_invalid_size () =
  match Pool.create ~size:0 () with
  | (_ : Pool.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault-isolated map (map_result): failure paths                      *)
(* ------------------------------------------------------------------ *)

let test_map_result_failure_isolated () =
  (* A raising task yields Failed for its slot only; every sibling
     still completes and the pool survives at full width. *)
  Pool.with_pool ~size:4 @@ fun pool ->
  let rs =
    Pool.map_result pool
      (fun ~cancel:_ x ->
        if x mod 3 = 0 then failwith ("boom" ^ string_of_int x) else x * 2)
      (List.init 7 Fun.id)
  in
  Alcotest.(check int) "one result per input" 7 (List.length rs);
  List.iteri
    (fun i r ->
      match r with
      | Pool.Done v ->
        Alcotest.(check bool) "survivor slot" false (i mod 3 = 0);
        Alcotest.(check int) "survivor value" (i * 2) v
      | Pool.Failed (Failure msg, _) ->
        Alcotest.(check bool) "failed slot" true (i mod 3 = 0);
        Alcotest.(check string) "failure message"
          ("boom" ^ string_of_int i) msg
      | Pool.Failed _ -> Alcotest.fail "unexpected exception kind"
      | Pool.Timed_out _ -> Alcotest.fail "unexpected timeout"
      | Pool.Cancelled _ -> Alcotest.fail "unexpected cancellation")
    rs;
  Alcotest.(check (list int)) "pool reusable after failures" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_map_result_timeout_spinner () =
  (* A task that spins forever but polls its token: the deadline trips
     it, the slot is Timed_out with the elapsed time, and no worker
     domain is lost — a later full-width batch still completes. *)
  Pool.with_pool ~size:2 @@ fun pool ->
  let rs =
    Pool.map_result ~timeout_s:0.2 pool
      (fun ~cancel x ->
        if x = 1 then
          while true do
            Exec.Cancel.check cancel;
            Domain.cpu_relax ()
          done;
        x)
      [ 0; 1; 2 ]
  in
  (match rs with
  | [ Pool.Done 0; Pool.Timed_out dt; Pool.Done 2 ] ->
    Alcotest.(check bool) "elapsed covers the deadline" true (dt >= 0.2)
  | _ -> Alcotest.fail "expected [Done 0; Timed_out _; Done 2]");
  Alcotest.(check (list int)) "pool at full width after the timeout"
    (List.init 8 succ)
    (Pool.map pool succ (List.init 8 Fun.id))

let test_map_result_nested_under_failure () =
  (* A sibling raises while another task runs a nested Pool.map on the
     same pool: the nested batch is unaffected (helping keeps it
     deadlock-free) and only the raising slot is Failed. *)
  Pool.with_pool ~size:2 @@ fun pool ->
  let rs =
    Pool.map_result pool
      (fun ~cancel:_ x ->
        if x = 0 then failwith "sibling"
        else Pool.map pool (fun y -> (10 * x) + y) [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  match rs with
  | [ Pool.Failed (Failure msg, _); Pool.Done r1; Pool.Done r2 ] ->
    Alcotest.(check string) "sibling message" "sibling" msg;
    Alcotest.(check (list int)) "nested under failure 1" [ 10; 11; 12 ] r1;
    Alcotest.(check (list int)) "nested under failure 2" [ 20; 21; 22 ] r2
  | _ -> Alcotest.fail "expected [Failed; Done; Done]"

let test_map_result_explicit_cancel_typed () =
  (* An explicitly tripped batch token yields Cancelled (not
     Timed_out): the token's latched reason classifies the result. *)
  Pool.with_pool ~size:2 @@ fun pool ->
  let cancel = Exec.Cancel.create () in
  Exec.Cancel.cancel cancel;
  (match
     Pool.map_result ~cancel pool
       (fun ~cancel x ->
         Exec.Cancel.check cancel;
         x)
       [ 0; 1 ]
   with
  | [ Pool.Cancelled _; Pool.Cancelled _ ] -> ()
  | [ Pool.Timed_out _; _ ] | [ _; Pool.Timed_out _ ] ->
    Alcotest.fail "explicit cancel misclassified as a timeout"
  | _ -> Alcotest.fail "expected two Cancelled results");
  (* ...while a deadline trip still reports Timed_out. *)
  match
    Pool.map_result ~timeout_s:0.0 pool
      (fun ~cancel _ ->
        Unix.sleepf 0.002;
        Exec.Cancel.check cancel)
      [ () ]
  with
  | [ Pool.Timed_out _ ] -> ()
  | _ -> Alcotest.fail "expected a Timed_out result"

(* ------------------------------------------------------------------ *)
(* Chaos injection and self-healing                                    *)
(* ------------------------------------------------------------------ *)

let test_chaos_crash_budget_exact () =
  (* Budgets turn probabilities into exact counts: crash = 1.0 with a
     budget of 3 fails exactly the first three draws, wherever the
     scheduler happens to land them, and every other task completes
     with the right value. *)
  let chaos =
    Exec.Chaos.create
      {
        Exec.Chaos.default_config with
        Exec.Chaos.seed = 3;
        crash = 1.0;
        crash_budget = Some 3;
      }
  in
  Pool.with_pool ~size:3 ~chaos @@ fun pool ->
  let rs = Pool.map_result pool (fun ~cancel:_ x -> x) (List.init 10 Fun.id) in
  let failed, done_ =
    List.partition (function Pool.Failed _ -> true | _ -> false) rs
  in
  Alcotest.(check int) "exactly budget crashes" 3 (List.length failed);
  Alcotest.(check int) "the rest completed" 7 (List.length done_);
  List.iteri
    (fun i r ->
      match r with
      | Pool.Done v -> Alcotest.(check int) "slot value" i v
      | Pool.Failed (Exec.Chaos.Injected_crash _, _) -> ()
      | _ -> Alcotest.fail "unexpected result kind")
    rs;
  Alcotest.(check int) "injector accounted" 3 (Exec.Chaos.injected chaos)

let test_self_healing () =
  (* Injected worker kills: the claimed tasks are requeued (no batch
     ever loses work), the dead domains are respawned by [heal] at a
     batch boundary, and the restarts surface in Pool_restarts. *)
  let chaos =
    Exec.Chaos.create
      {
        Exec.Chaos.default_config with
        Exec.Chaos.seed = 7;
        kill = 1.0;
        kill_budget = Some 2;
      }
  in
  Pool.with_pool ~size:4 ~chaos @@ fun pool ->
  let restarts0 = Obs.Counters.get Obs.Counters.Pool_restarts in
  (* Kills strike only tasks a worker domain claims.  Tasks that take a
     millisecond keep the submitting thread from draining a batch alone
     before the workers are scheduled on a loaded host. *)
  let slow f x =
    Unix.sleepf 0.001;
    f x
  in
  let xs = List.init 32 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "no work lost to the kills" expect
    (Pool.map pool (slow (fun x -> x * x)) xs);
  (* Chaos pools heal at batch boundaries; drive a few batches until
     both victims have been respawned. *)
  let rec settle n =
    if
      n > 0
      && Obs.Counters.get Obs.Counters.Pool_restarts - restarts0 < 2
    then begin
      Alcotest.(check (list int)) "batch while healing" [ 2; 4; 6 ]
        (Pool.map pool (slow (fun x -> 2 * x)) [ 1; 2; 3 ]);
      settle (n - 1)
    end
  in
  settle 10;
  Alcotest.(check int) "both kills healed" 2
    (Obs.Counters.get Obs.Counters.Pool_restarts - restarts0);
  Alcotest.(check int) "no dead workers left" 0 (Pool.dead_workers pool);
  Alcotest.(check (list int)) "full width restored" expect
    (Pool.map pool (fun x -> x * x) xs)

let test_map_opt () =
  Alcotest.(check (list int)) "None = List.map" [ 2; 3 ]
    (Pool.map_opt None succ [ 1; 2 ]);
  Pool.with_pool ~size:2 @@ fun pool ->
  Alcotest.(check (list int)) "Some = Pool.map" [ 2; 3 ]
    (Pool.map_opt (Some pool) succ [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Sweep determinism regression: -j 4 rows = serial rows, field for    *)
(* field (incl. the dhaz/ext/squash columns)                           *)
(* ------------------------------------------------------------------ *)

let check_rows_equal what (serial : (float * Workload.Stats.row) list)
    (parallel : (float * Workload.Stats.row) list) =
  Alcotest.(check int)
    (what ^ ": same point count")
    (List.length serial) (List.length parallel);
  List.iter2
    (fun (xs, (s : Workload.Stats.row)) (xp, (p : Workload.Stats.row)) ->
      let ck name field = Alcotest.(check int) (what ^ ": " ^ name) (field s) (field p) in
      Alcotest.(check (float 0.0)) (what ^ ": point") xs xp;
      Alcotest.(check string) (what ^ ": label") s.Workload.Stats.label
        p.Workload.Stats.label;
      ck "instructions" (fun r -> r.Workload.Stats.instructions);
      ck "cycles" (fun r -> r.Workload.Stats.cycles);
      Alcotest.(check (float 0.0)) (what ^ ": cpi") s.Workload.Stats.cpi
        p.Workload.Stats.cpi;
      Alcotest.(check (float 0.0))
        (what ^ ": speedup")
        s.Workload.Stats.speedup_vs_sequential
        p.Workload.Stats.speedup_vs_sequential;
      ck "fetch_stall_cycles" (fun r -> r.Workload.Stats.fetch_stall_cycles);
      ck "dhaz_cycles" (fun r -> r.Workload.Stats.dhaz_cycles);
      ck "ext_cycles" (fun r -> r.Workload.Stats.ext_cycles);
      ck "rollbacks" (fun r -> r.Workload.Stats.rollbacks);
      ck "squashed" (fun r -> r.Workload.Stats.squashed))
    serial parallel

let test_dependency_sweep_deterministic () =
  let biases = [ 0.0; 0.5; 1.0 ] in
  let serial =
    Workload.Sweep.dependency_sweep ~biases ~length:60 ~seed:3 ()
  in
  Pool.with_pool ~size:4 @@ fun pool ->
  let parallel =
    Workload.Sweep.dependency_sweep ~pool ~biases ~length:60 ~seed:3 ()
  in
  check_rows_equal "dependency" serial parallel

let test_branch_sweep_deterministic () =
  let taken_fracs = [ 0.0; 0.5; 1.0 ] in
  let serial =
    Workload.Sweep.branch_sweep ~taken_fracs ~length:60 ~seed:9 ()
  in
  Pool.with_pool ~size:4 @@ fun pool ->
  let parallel =
    Workload.Sweep.branch_sweep ~pool ~taken_fracs ~length:60 ~seed:9 ()
  in
  check_rows_equal "branch" serial parallel

(* ------------------------------------------------------------------ *)
(* Sharded map: bit-identical to map, order preserved                  *)
(* ------------------------------------------------------------------ *)

let prop_map_sharded_is_map =
  QCheck.Test.make ~name:"Pool.map_sharded = List.map (j, shards varied)"
    ~count:60
    (QCheck.make
       ~print:(fun (j, k, xs) ->
         Printf.sprintf "QCHECK_SEED=%d j=%d shards=%d [%s]" qcheck_seed j k
           (String.concat "; " (List.map string_of_int xs)))
       QCheck.Gen.(
         triple (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 3; 8 ])
           (list_size (int_bound 64) small_int)))
    (fun (j, k, xs) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      Pool.with_pool ~size:j (fun pool -> Pool.map_sharded ~shards:k pool f xs)
      = List.map f xs)

(* ------------------------------------------------------------------ *)
(* WORK counter determinism: every deterministic counter must be       *)
(* bit-identical across -j 1 vs -j 4 and batched vs rebuild            *)
(* ------------------------------------------------------------------ *)

let counted f =
  Obs.Counters.reset ();
  let r = f () in
  (r, Obs.Counters.work_snapshot ())

let check_work_equal what a b =
  Alcotest.(check (list (pair string int))) (what ^ ": WORK counters") a b

let test_work_counters_j1_vs_j4 () =
  let biases = [ 0.0; 0.3; 0.6; 1.0 ] in
  let run ?pool () =
    Workload.Sweep.dependency_sweep ?pool ~biases ~length:80 ~seed:5 ()
  in
  let rows_s, work_s = counted (fun () -> run ()) in
  let rows_p, work_p =
    counted (fun () -> Pool.with_pool ~size:4 (fun pool -> run ~pool ()))
  in
  check_rows_equal "work j1 vs j4" rows_s rows_p;
  check_work_equal "serial vs -j4" work_s work_p;
  Alcotest.(check bool) "counters actually counted" true
    (List.assoc "sim_cycles" work_s > 0
    && List.assoc "plan_ops" work_s > 0
    && List.assoc "sweep_points" work_s = List.length biases)

let test_work_counters_batched_vs_rebuild () =
  let biases = [ 0.0; 0.5; 1.0 ] in
  let run ~batched () =
    Workload.Sweep.dependency_sweep ~batched ~biases ~length:60 ~seed:3 ()
  in
  let rows_b, work_b = counted (fun () -> run ~batched:true ()) in
  let rows_r, work_r = counted (fun () -> run ~batched:false ()) in
  check_rows_equal "batched vs rebuild" rows_b rows_r;
  check_work_equal "batched vs rebuild" work_b work_r

let prop_work_counters_deterministic =
  QCheck.Test.make
    ~name:"WORK counters bit-identical (random sweep, j in {1,2,4})"
    ~count:6
    (QCheck.make
       ~print:(fun (j, seed, bias) ->
         Printf.sprintf "QCHECK_SEED=%d j=%d seed=%d bias=%.2f" qcheck_seed j
           seed bias)
       QCheck.Gen.(
         triple (oneofl [ 2; 4 ]) (int_bound 1000)
           (map (fun n -> float_of_int n /. 100.) (int_bound 100))))
    (fun (j, seed, bias) ->
      let biases = [ bias; 1.0 -. bias ] in
      let run ?pool () =
        Workload.Sweep.dependency_sweep ?pool ~biases ~length:40 ~seed ()
      in
      let rows_s, work_s = counted (fun () -> run ()) in
      let rows_p, work_p =
        counted (fun () -> Pool.with_pool ~size:j (fun pool -> run ~pool ()))
      in
      rows_s = rows_p && work_s = work_p)

let test_verify_deterministic () =
  (* Core.verify with and without a pool: same verdict, same reports. *)
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  let serial = Core.verify tr in
  let parallel = Pool.with_pool ~size:4 (fun pool -> Core.verify ~pool tr) in
  Alcotest.(check bool) "serial verdict" true (Core.verified serial);
  Alcotest.(check bool) "parallel verdict" true (Core.verified parallel);
  Alcotest.(check bool) "same consistency report" true
    (serial.Core.consistency = parallel.Core.consistency);
  Alcotest.(check bool) "same liveness report" true
    (serial.Core.liveness = parallel.Core.liveness);
  Alcotest.(check int) "same obligation count"
    (List.length serial.Core.obligations)
    (List.length parallel.Core.obligations)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "reuse and stats" `Quick
            test_pool_reuse_and_stats;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "map_reduce ordered" `Quick
            test_map_reduce_ordered;
          Alcotest.test_case "size 1 inline" `Quick test_size_one_inline;
          Alcotest.test_case "shutdown rejects" `Quick test_shutdown_rejects;
          Alcotest.test_case "invalid size" `Quick test_invalid_size;
          Alcotest.test_case "map_opt" `Quick test_map_opt;
        ] );
      ( "map_result",
        [
          Alcotest.test_case "failure isolated, batch drains" `Quick
            test_map_result_failure_isolated;
          Alcotest.test_case "timeout cancels a spinner" `Quick
            test_map_result_timeout_spinner;
          Alcotest.test_case "nested map under raising sibling" `Quick
            test_map_result_nested_under_failure;
          Alcotest.test_case "explicit cancel is typed" `Quick
            test_map_result_explicit_cancel_typed;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash budget exact" `Quick
            test_chaos_crash_budget_exact;
          Alcotest.test_case "kills heal, no work lost" `Quick
            test_self_healing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dependency sweep -j4 = serial" `Quick
            test_dependency_sweep_deterministic;
          Alcotest.test_case "branch sweep -j4 = serial" `Quick
            test_branch_sweep_deterministic;
          Alcotest.test_case "Core.verify -j4 = serial" `Quick
            test_verify_deterministic;
          Alcotest.test_case "WORK counters -j4 = serial" `Quick
            test_work_counters_j1_vs_j4;
          Alcotest.test_case "WORK counters batched = rebuild" `Quick
            test_work_counters_batched_vs_rebuild;
        ] );
      ( "properties",
        List.map to_alcotest
          [
            prop_map_is_list_map;
            prop_map_sharded_is_map;
            prop_work_counters_deterministic;
          ] );
    ]
