type id =
  | Plan_runs
  | Plan_ops
  | Cells_written
  | State_resets
  | Snapshot_words
  | Sim_cycles
  | Sim_retired
  | Seq_instructions
  | Golden_steps
  | Entries_compared
  | Obligations
  | Bmc_programs
  | Sweep_points
  | Plan_binds
  | Sessions
  | Pool_tasks
  | Pool_stolen
  | Pool_helped
  | Pool_inline
  | Pool_queue_hwm
  | Serve_requests
  | Serve_cache_hits
  | Serve_cache_misses
  | Serve_coalesced
  | Serve_queue_hwm
  | Serve_shed
  | Serve_retries
  | Serve_journal_replayed
  | Pool_restarts

let all =
  [
    Plan_runs; Plan_ops; Cells_written; State_resets; Snapshot_words;
    Sim_cycles; Sim_retired; Seq_instructions; Golden_steps; Entries_compared;
    Obligations; Bmc_programs;
    Sweep_points; Plan_binds; Sessions; Pool_tasks; Pool_stolen; Pool_helped;
    Pool_inline; Pool_queue_hwm; Serve_requests; Serve_cache_hits;
    Serve_cache_misses; Serve_coalesced; Serve_queue_hwm; Serve_shed;
    Serve_retries; Serve_journal_replayed; Pool_restarts;
  ]

let index = function
  | Plan_runs -> 0
  | Plan_ops -> 1
  | Cells_written -> 2
  | State_resets -> 3
  | Snapshot_words -> 4
  | Sim_cycles -> 5
  | Sim_retired -> 6
  | Seq_instructions -> 7
  | Golden_steps -> 8
  | Entries_compared -> 9
  | Obligations -> 10
  | Bmc_programs -> 11
  | Sweep_points -> 12
  | Plan_binds -> 13
  | Sessions -> 14
  | Pool_tasks -> 15
  | Pool_stolen -> 16
  | Pool_helped -> 17
  | Pool_inline -> 18
  | Pool_queue_hwm -> 19
  | Serve_requests -> 20
  | Serve_cache_hits -> 21
  | Serve_cache_misses -> 22
  | Serve_coalesced -> 23
  | Serve_queue_hwm -> 24
  | Serve_shed -> 25
  | Serve_retries -> 26
  | Serve_journal_replayed -> 27
  | Pool_restarts -> 28

let n_ids = 29

let name = function
  | Plan_runs -> "plan_runs"
  | Plan_ops -> "plan_ops"
  | Cells_written -> "cells_written"
  | State_resets -> "state_resets"
  | Snapshot_words -> "snapshot_words"
  | Sim_cycles -> "sim_cycles"
  | Sim_retired -> "sim_retired"
  | Seq_instructions -> "seq_instructions"
  | Golden_steps -> "golden_steps"
  | Entries_compared -> "entries_compared"
  | Obligations -> "obligations"
  | Bmc_programs -> "bmc_programs"
  | Sweep_points -> "sweep_points"
  | Plan_binds -> "plan_binds"
  | Sessions -> "sessions"
  | Pool_tasks -> "pool_tasks"
  | Pool_stolen -> "pool_stolen"
  | Pool_helped -> "pool_helped"
  | Pool_inline -> "pool_inline"
  | Pool_queue_hwm -> "pool_queue_hwm"
  | Serve_requests -> "serve_requests"
  | Serve_cache_hits -> "serve_cache_hits"
  | Serve_cache_misses -> "serve_cache_misses"
  | Serve_coalesced -> "serve_coalesced"
  | Serve_queue_hwm -> "serve_queue_hwm"
  | Serve_shed -> "serve_shed"
  | Serve_retries -> "serve_retries"
  | Serve_journal_replayed -> "serve_journal_replayed"
  | Pool_restarts -> "pool_restarts"

let is_work = function
  | Plan_runs | Plan_ops | Cells_written | State_resets | Snapshot_words
  | Sim_cycles | Sim_retired | Seq_instructions | Golden_steps
  | Entries_compared | Obligations | Bmc_programs
  | Sweep_points ->
    true
  | Plan_binds | Sessions | Pool_tasks
  | Pool_stolen | Pool_helped | Pool_inline | Pool_queue_hwm | Serve_requests
  | Serve_cache_hits | Serve_cache_misses | Serve_coalesced | Serve_queue_hwm
  | Serve_shed | Serve_retries | Serve_journal_replayed | Pool_restarts ->
    false

let is_max = function Pool_queue_hwm | Serve_queue_hwm -> true | _ -> false

(* Every domain counts into a private array (registered once, on the
   domain's first count) so the hot path takes no lock; aggregation
   walks the registry under [lock].  Arrays of joined domains stay
   registered: totals include work done by pool workers that have
   since been shut down. *)
let lock = Mutex.create ()
let cells : int array list ref = ref []

let dls : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let a = Array.make n_ids 0 in
      Mutex.lock lock;
      cells := a :: !cells;
      Mutex.unlock lock;
      a)

let on = Atomic.make true
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let with_disabled f =
  let was = Atomic.get on in
  Atomic.set on false;
  Fun.protect ~finally:(fun () -> Atomic.set on was) f

let add id n =
  if Atomic.get on then begin
    let a = Domain.DLS.get dls in
    let i = index id in
    Array.unsafe_set a i (Array.unsafe_get a i + n)
  end

let bump id = add id 1

let record_max id n =
  if Atomic.get on then begin
    let a = Domain.DLS.get dls in
    let i = index id in
    if n > Array.unsafe_get a i then Array.unsafe_set a i n
  end

(* Counting into a scratch array that is deliberately NOT in the
   [cells] registry: everything counted inside [f] is discarded.
   Unlike [with_disabled] this is per-domain — other domains keep
   counting — so it is safe inside pool workers (the global [on] flag
   would turn counting off for every domain at once). *)
let with_discarded f =
  let prev = Domain.DLS.get dls in
  Domain.DLS.set dls (Array.make n_ids 0);
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls prev) f

let reset () =
  Mutex.lock lock;
  List.iter (fun a -> Array.fill a 0 n_ids 0) !cells;
  Mutex.unlock lock

let totals () =
  let t = Array.make n_ids 0 in
  let maxes =
    let m = Array.make n_ids false in
    List.iter (fun id -> m.(index id) <- is_max id) all;
    m
  in
  Mutex.lock lock;
  List.iter
    (fun a ->
      for i = 0 to n_ids - 1 do
        if maxes.(i) then t.(i) <- max t.(i) a.(i) else t.(i) <- t.(i) + a.(i)
      done)
    !cells;
  Mutex.unlock lock;
  t

let get id = (totals ()).(index id)

let snapshot_of pred =
  let t = totals () in
  List.filter pred all
  |> List.map (fun id -> (name id, t.(index id)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () = snapshot_of (fun _ -> true)
let work_snapshot () = snapshot_of is_work
let sched_snapshot () = snapshot_of (fun id -> not (is_work id))
