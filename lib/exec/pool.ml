(* A fixed-size domain pool over one shared work queue.

   The locking discipline: every field except the queue's task
   closures is read and written under [mutex].  Task closures run
   outside the lock.  Result cells written by a worker become visible
   to the submitting thread through the mutex acquire/release pair
   around the batch counter — the counter reaching zero happens-after
   every result write.

   The submitting thread of [map] does not merely wait: while its
   batch is unfinished it pops and runs queued tasks (its own or any
   other batch's).  This makes [map] re-entrant — a task calling [map]
   on the same pool always makes progress — and lets a size-[n] pool
   deliver [n]-way parallelism with only [n - 1] spawned domains. *)

type domain_stats = { worker : int; tasks : int; busy_s : float }

type t = {
  pool_size : int;
  mutex : Mutex.t;
  work : Condition.t;
      (* signalled on: new batch, batch completion, shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  w_tasks : int array; (* slot 0 = submitting thread, 1.. = workers *)
  w_busy : float array;
  w_started : float array; (* 0.0 = idle, else task start timestamp *)
  mutable dead_slots : int list; (* killed workers awaiting [heal] *)
  chaos : Chaos.t option;
}

let default_size () = Domain.recommended_domain_count ()

(* Run one task outside the lock, charging wall time to [slot].  The
   start timestamp is published under the mutex so the watchdog
   ([wedged]) can spot a slot that has been inside one task too long.
   The task is counted when it starts: it completes its batch itself,
   so counting it afterwards would let [map] return, and [stats] read,
   before the count. *)
let run_task t slot task =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.mutex;
  t.w_started.(slot) <- t0;
  t.w_tasks.(slot) <- t.w_tasks.(slot) + 1;
  Mutex.unlock t.mutex;
  task ();
  let dt = Unix.gettimeofday () -. t0 in
  Obs.Counters.bump Obs.Counters.Pool_tasks;
  Obs.Counters.bump
    (if slot = 0 then Obs.Counters.Pool_helped else Obs.Counters.Pool_stolen);
  Mutex.lock t.mutex;
  t.w_started.(slot) <- 0.0;
  t.w_busy.(slot) <- t.w_busy.(slot) +. dt;
  Mutex.unlock t.mutex

let worker_loop t slot =
  let rec next () =
    (* invariant: mutex held here *)
    if not (Queue.is_empty t.queue) then begin
      let task = Queue.pop t.queue in
      match
        match t.chaos with Some c -> Chaos.apply_worker c | None -> ()
      with
      | () ->
        Mutex.unlock t.mutex;
        run_task t slot task;
        Mutex.lock t.mutex;
        next ()
      | exception Chaos.Injected_kill _ ->
        (* This domain "dies" before running its claimed task: the task
           goes back on the queue losslessly (result cells are
           index-addressed, so requeue position is irrelevant), the
           corpse is recorded for [heal], and the domain exits.  The
           batch still completes without healing because the submitter
           helps drain. *)
        Queue.add task t.queue;
        t.dead_slots <- slot :: t.dead_slots;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex
    end
    else if t.closed then Mutex.unlock t.mutex
    else begin
      Condition.wait t.work t.mutex;
      next ()
    end
  in
  Mutex.lock t.mutex;
  next ()

let create ?size ?chaos () =
  let pool_size = match size with None -> default_size () | Some n -> n in
  if pool_size < 1 then
    invalid_arg "Exec.Pool.create: size must be at least 1";
  let t =
    {
      pool_size;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [||];
      w_tasks = Array.make pool_size 0;
      w_busy = Array.make pool_size 0.0;
      w_started = Array.make pool_size 0.0;
      dead_slots = [];
      chaos;
    }
  in
  t.domains <-
    Array.init (pool_size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.pool_size

(* Respawn every recorded dead worker.  Draining [dead_slots] under the
   mutex makes each corpse the responsibility of exactly one healer, so
   the joins and the [domains] writes below race with nobody. *)
let heal t =
  Mutex.lock t.mutex;
  let dead = t.dead_slots in
  t.dead_slots <- [];
  let closed = t.closed in
  Mutex.unlock t.mutex;
  if closed then 0
  else begin
    List.iter
      (fun slot ->
        Domain.join t.domains.(slot - 1);
        t.domains.(slot - 1) <- Domain.spawn (fun () -> worker_loop t slot);
        Obs.Counters.bump Obs.Counters.Pool_restarts)
      dead;
    List.length dead
  end

let dead_workers t =
  Mutex.lock t.mutex;
  let n = List.length t.dead_slots in
  Mutex.unlock t.mutex;
  n

let wedged ?(budget_s = 1.0) t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.mutex;
  let r =
    List.filter
      (fun i -> t.w_started.(i) > 0.0 && now -. t.w_started.(i) > budget_s)
      (List.init t.pool_size Fun.id)
  in
  Mutex.unlock t.mutex;
  r

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ?size ?chaos f =
  let t = create ?size ?chaos () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  if t.pool_size <= 1 then begin
    (* Zero-domain fallback: inline, still accounted in the stats. *)
    let t0 = Unix.gettimeofday () in
    let r = List.map f xs in
    let n = List.length xs in
    Obs.Counters.add Obs.Counters.Pool_tasks n;
    Obs.Counters.add Obs.Counters.Pool_inline n;
    t.w_tasks.(0) <- t.w_tasks.(0) + n;
    t.w_busy.(0) <- t.w_busy.(0) +. (Unix.gettimeofday () -. t0);
    r
  end
  else
    match xs with
    | [] -> []
    | xs ->
      (* Self-healing: respawn any workers that died since the last
         batch, so injected kills degrade parallelism only briefly.
         Correctness never depends on this — the submitter helps. *)
      if t.chaos <> None then ignore (heal t : int);
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      let remaining = ref n in
      let first_error = ref None in
      let task i () =
        (match f arr.(i) with
        | r -> results.(i) <- Some r
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.mutex;
          if !first_error = None then first_error := Some (e, bt);
          Mutex.unlock t.mutex);
        Mutex.lock t.mutex;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.work;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Exec.Pool.map: pool has been shut down"
      end;
      for i = 0 to n - 1 do
        Queue.add (task i) t.queue
      done;
      Obs.Counters.record_max Obs.Counters.Pool_queue_hwm
        (Queue.length t.queue);
      Condition.broadcast t.work;
      (* Help drain the queue until this batch is done. *)
      let rec wait_drain () =
        (* invariant: mutex held here *)
        if !remaining = 0 then Mutex.unlock t.mutex
        else if not (Queue.is_empty t.queue) then begin
          let task = Queue.pop t.queue in
          Mutex.unlock t.mutex;
          run_task t 0 task;
          Mutex.lock t.mutex;
          wait_drain ()
        end
        else begin
          Condition.wait t.work t.mutex;
          wait_drain ()
        end
      in
      wait_drain ();
      if t.chaos <> None then ignore (heal t : int);
      (match !first_error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list
        (Array.map
           (function Some r -> r | None -> assert false)
           results)

let map_reduce t ~map:f ~fold ~init xs = List.fold_left fold init (map t f xs)

type 'a task_result =
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace
  | Timed_out of float
  | Cancelled of float

(* [map] with per-task fault isolation: each task gets its own
   cancellation token (tripping after [timeout_s], when given) and its
   exception — including {!Cancel.Cancelled} from the timeout — is
   captured in the result instead of poisoning the batch.  The wrapper
   task never raises, so the plain [map] machinery's first-error path
   stays dormant and every element yields a verdict.

   A {!Cancel.Cancelled} escape is classified from the token's latched
   {!Cancel.reason}: a deadline trip is [Timed_out], an explicit trip
   (batch cancellation, shutdown) is [Cancelled].  The pool's chaos
   injector, when armed, consults its task stream once per attempt
   right here — inside the isolation wrapper — so an injected crash
   surfaces as [Failed] and an injected wedge is still bounded by the
   task's own deadline. *)
let map_result ?timeout_s ?cancel t f xs =
  map t
    (fun x ->
      let token =
        match cancel with
        | None -> Cancel.create ?timeout_s ()
        | Some parent -> Cancel.with_parent parent ?timeout_s ()
      in
      match
        (match t.chaos with
        | Some c -> Chaos.apply_task c ~cancel:token
        | None -> ());
        f ~cancel:token x
      with
      | r -> Done r
      | exception Cancel.Cancelled -> (
        let el = Cancel.elapsed_s token in
        match Cancel.reason token with
        | Some Cancel.Deadline -> Timed_out el
        | Some Cancel.Explicit | None -> Cancelled el)
      | exception e -> Failed (e, Printexc.get_raw_backtrace ()))
    xs

let stats t =
  Mutex.lock t.mutex;
  let r =
    List.init t.pool_size (fun i ->
        { worker = i; tasks = t.w_tasks.(i); busy_s = t.w_busy.(i) })
  in
  Mutex.unlock t.mutex;
  r

let reset_stats t =
  Mutex.lock t.mutex;
  Array.fill t.w_tasks 0 t.pool_size 0;
  Array.fill t.w_busy 0 t.pool_size 0.0;
  Mutex.unlock t.mutex

let map_opt pool f xs =
  match pool with None -> List.map f xs | Some p -> map p f xs

(* Contiguous, balanced shards: shard [i] of [k] holds elements
   [i*n/k, (i+1)*n/k).  Concatenating the shards in order restores the
   input order exactly, so a sharded map is bit-identical to [map]. *)
let shard ~shards xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let k = max 1 (min shards n) in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      Array.to_list (Array.sub arr lo (hi - lo)))

let map_sharded ?shards t f xs =
  match xs with
  | [] -> []
  | xs ->
    let k = match shards with Some k -> k | None -> t.pool_size in
    if t.pool_size <= 1 || k <= 1 then map t f xs
    else List.concat (map t (fun chunk -> List.map f chunk) (shard ~shards:k xs))

let map_opt_sharded ?shards pool f xs =
  match pool with
  | None -> List.map f xs
  | Some p -> map_sharded ?shards p f xs
