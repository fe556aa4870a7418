type config = {
  jobs : int;
  timeout_s : float option;
  capacity : int;
  metrics_out : string option;
  socket : string option;
  journal : string option;
  max_queue : int;
  retries : int;
  chaos : Exec.Chaos.config option;
}

let default_config =
  {
    jobs = Exec.Pool.default_size ();
    timeout_s = None;
    capacity = 256;
    metrics_out = None;
    socket = None;
    journal = None;
    max_queue = 256;
    retries = 2;
    chaos = None;
  }

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)
(* ------------------------------------------------------------------ *)

(* Mutable across batches, touched only by the serve thread.  The
   EWMA of per-request service time drives both the [retry_after_s]
   hint on shed responses and the deadline-based early reject; the
   hot-batch counter is the degrade hysteresis (3 consecutive
   shedding batches switch evaluation to cache-only, a half-empty
   queue switches back). *)
type admission = {
  adm_max_queue : int;
  adm_retries : int;
  mutable degraded : bool;
  mutable hot_batches : int;
  mutable ewma_ms : float;
}

let make_admission ?(max_queue = 256) ?(retries = 2) () =
  {
    adm_max_queue = max_queue;
    adm_retries = retries;
    degraded = false;
    hot_batches = 0;
    ewma_ms = 50.0;
  }

let degraded a = a.degraded

(* ------------------------------------------------------------------ *)
(* Batch admission                                                    *)
(* ------------------------------------------------------------------ *)

type role =
  | Malformed of Request.decode_error
  | Leader of Handler.prepared
  | Follower of int * Request.t  (* index of the leader *)

(* Requests coalesce when they ask one question: the same verdict-cache
   key (so the same payload) and the same deadline (so the same
   admission and timeout fate).  A request without a key (a campaign,
   a program that does not resolve) coalesces only with its own wire
   form and answers its own error. *)
let coalescing_key p =
  let req = Handler.request p in
  match Handler.verdict_key p with
  | Some k ->
    Printf.sprintf "key %s %s" k
      (match req.Request.deadline_s with
      | Some d -> Printf.sprintf "%h" d
      | None -> "-")
  | None -> "wire " ^ Request.to_string { req with Request.id = None }

let process_batch ~env ~pool ?timeout_s ?cancel ?latency ?admission lines =
  let n = List.length lines in
  Obs.Counters.record_max Obs.Counters.Serve_queue_hwm n;
  let seen = Hashtbl.create 16 in
  let roles =
    List.mapi
      (fun i line ->
        match Request.of_string line with
        | Error e -> Malformed e
        | Ok req -> (
          let p = Handler.prepare req in
          let canonical = coalescing_key p in
          match Hashtbl.find_opt seen canonical with
          | None ->
            Hashtbl.add seen canonical i;
            Leader p
          | Some j ->
            Obs.Counters.bump Obs.Counters.Serve_coalesced;
            Follower (j, req)))
      lines
  in
  let roles = Array.of_list roles in
  let leaders =
    Array.to_list roles
    |> List.mapi (fun i role -> (i, role))
    |> List.filter_map (function
         | i, Leader p -> Some (i, p)
         | _, (Malformed _ | Follower _) -> None)
  in
  let jobs = max 1 (Exec.Pool.size pool) in
  (* Admission: shed the leaders past the queue bound, then the ones
     whose projected queue wait already exceeds their own deadline.
     Both get typed [Overloaded] responses carrying a retry-after hint
     and never reach evaluation. *)
  let cache_only, kept, shed =
    match admission with
    | None -> (false, leaders, [])
    | Some a ->
      let ewma_s = a.ewma_ms /. 1000.0 in
      let retry_after =
        Float.max 0.01
          (ewma_s *. float_of_int (List.length leaders) /. float_of_int jobs)
      in
      let kept = ref [] and shed = ref [] in
      List.iteri
        (fun ord (i, p) ->
          let req = Handler.request p in
          if ord >= a.adm_max_queue then
            shed := (i, req, "queue full (max-queue exceeded)") :: !shed
          else
            match req.Request.deadline_s with
            | Some d
              when ewma_s *. float_of_int ord /. float_of_int jobs > d ->
              shed :=
                (i, req, "projected queue wait exceeds request deadline")
                :: !shed
            | _ -> kept := (i, p) :: !kept)
        leaders;
      let kept = List.rev !kept and shed_l = List.rev !shed in
      if shed_l <> [] then a.hot_batches <- a.hot_batches + 1
      else if 2 * List.length leaders <= a.adm_max_queue then begin
        a.hot_batches <- 0;
        a.degraded <- false
      end;
      if a.hot_batches >= 3 then a.degraded <- true;
      ( a.degraded,
        kept,
        List.map (fun (i, req, msg) -> (i, req, msg, retry_after)) shed_l )
  in
  let observe_latency f =
    match latency with
    | None -> f ()
    | Some h ->
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.observe h ((Unix.gettimeofday () -. t0) *. 1000.0))
        f
  in
  let eval_batch items =
    Exec.Pool.map_result ?timeout_s ?cancel pool
      (fun ~cancel (_, p) ->
        (* The request's own deadline rides as one more child token:
           server timeout, client deadline and shutdown all trip the
           same cooperative chain, and [Cancel.reason] keeps Timeout
           vs Cancelled straight. *)
        let cancel =
          match (Handler.request p).Request.deadline_s with
          | None -> cancel
          | Some d -> Exec.Cancel.with_parent cancel ~timeout_s:d ()
        in
        observe_latency (fun () ->
            Handler.handle_prepared ~env ~pool ~cancel ~cache_only p))
      items
  in
  let t0 = Unix.gettimeofday () in
  let outcomes = Array.of_list (eval_batch kept) in
  let kept_arr = Array.of_list kept in
  (* Bounded retry with backoff for transient failures: evaluation is
     pure, so re-running a crashed task is safe.  Only [Failed]
     outcomes retry — timeouts and cancellations are answers. *)
  let retries =
    match admission with Some a -> a.adm_retries | None -> 0
  in
  let rec retry_round attempt =
    if attempt <= retries then begin
      let failed = ref [] in
      Array.iteri
        (fun j o ->
          match o with Exec.Pool.Failed _ -> failed := j :: !failed | _ -> ())
        outcomes;
      let failed = List.rev !failed in
      if failed <> [] then begin
        Unix.sleepf (0.001 *. float_of_int (1 lsl (attempt - 1)));
        List.iter
          (fun _ -> Obs.Counters.bump Obs.Counters.Serve_retries)
          failed;
        let redo = eval_batch (List.map (fun j -> kept_arr.(j)) failed) in
        List.iter2 (fun j o -> outcomes.(j) <- o) failed redo;
        retry_round (attempt + 1)
      end
    end
  in
  retry_round 1;
  (match admission with
  | Some a when kept <> [] ->
    let per_req_ms =
      (Unix.gettimeofday () -. t0)
      *. 1000.0
      /. float_of_int (List.length kept)
    in
    a.ewma_ms <- (0.8 *. a.ewma_ms) +. (0.2 *. per_req_ms)
  | _ -> ());
  let responses = Array.make (Array.length roles) None in
  Array.iteri
    (fun j (i, p) ->
      let req = Handler.request p in
      let resp =
        match outcomes.(j) with
        | Exec.Pool.Done resp -> resp
        | Exec.Pool.Failed (e, _) ->
          Response.fail ?id:req.Request.id Response.Internal
            (Printexc.to_string e)
        | Exec.Pool.Timed_out elapsed ->
          Response.fail ?id:req.Request.id Response.Timeout
            (Printf.sprintf "request timed out after %.2fs" elapsed)
        | Exec.Pool.Cancelled elapsed ->
          Response.fail ?id:req.Request.id Response.Cancelled
            (Printf.sprintf "request cancelled after %.2fs" elapsed)
      in
      responses.(i) <- Some resp)
    kept_arr;
  List.iter
    (fun (i, (req : Request.t), msg, retry_after) ->
      Obs.Counters.bump Obs.Counters.Serve_shed;
      responses.(i) <-
        Some
          (Response.fail ?id:req.Request.id ~retry_after_s:retry_after
             Response.Overloaded msg))
    shed;
  Array.iteri
    (fun i role ->
      match role with
      | Leader _ -> ()
      | Malformed err ->
        responses.(i) <-
          Some
            (Response.fail Response.Usage
               (Format.asprintf "%a" Request.pp_decode_error err))
      | Follower (j, req) ->
        let leader =
          match responses.(j) with Some r -> r | None -> assert false
        in
        let cached =
          match leader.Response.result with Ok _ -> true | Error _ -> false
        in
        responses.(i) <-
          Some { leader with Response.id = req.Request.id; cached })
    roles;
  Array.to_list responses
  |> List.map (function Some r -> r | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Line transport                                                     *)
(* ------------------------------------------------------------------ *)

exception Client_gone
(* The peer vanished mid-conversation (EPIPE/ECONNRESET).  Fails this
   connection only: the socket accept loop moves to the next client,
   the daemon never dies.  SIGPIPE is ignored in [run] so the write
   error surfaces here instead of killing the process. *)

(* A buffered fd reader that can both block for the next line and
   greedily drain whatever further complete lines have already
   arrived — the admission loop's batching primitive.  [Unix.read]
   is retried on EINTR with the shutdown token checked in between,
   so SIGINT lands even mid-read. *)
type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable eof : bool;
}

let reader fd = { fd; buf = Buffer.create 4096; eof = false }

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let refill ~shutdown r =
  let bytes = Bytes.create 4096 in
  let rec read () =
    match Unix.read r.fd bytes 0 (Bytes.length bytes) with
    | 0 ->
      r.eof <- true;
      false
    | k ->
      Buffer.add_subbytes r.buf bytes 0 k;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Exec.Cancel.cancelled shutdown then begin
        r.eof <- true;
        false
      end
      else read ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      (* a vanished client is EOF, not a daemon failure *)
      r.eof <- true;
      false
  in
  read ()

(* Block until at least one line (or EOF). *)
let rec next_line ~shutdown r =
  if Exec.Cancel.cancelled shutdown then None
  else
    match take_line r with
    | Some l -> Some l
    | None ->
      if r.eof then None
      else if refill ~shutdown r then next_line ~shutdown r
      else if Buffer.length r.buf > 0 then begin
        (* trailing line without a newline *)
        let l = Buffer.contents r.buf in
        Buffer.clear r.buf;
        Some l
      end
      else None

(* Drain every further complete line that is already available,
   without blocking: buffered remainders first, then whatever
   [select] says is readable right now. *)
let drain_available ~shutdown r =
  let rec lines acc =
    match take_line r with
    | Some l -> lines (l :: acc)
    | None ->
      if r.eof then List.rev acc
      else (
        match Unix.select [ r.fd ] [] [] 0.0 with
        | [], _, _ -> List.rev acc
        | _ ->
          if refill ~shutdown r then lines acc
          else List.rev acc
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> List.rev acc)
  in
  lines []

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Client_gone
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Journal replay                                                     *)
(* ------------------------------------------------------------------ *)

(* Recovery on restart: completed journal entries are re-emitted
   verbatim (and warm the verdict cache), unfinished ones are
   re-admitted as one batch whose done-records land on their original
   sequence numbers.  At-least-once overall; responses are
   byte-identical thanks to the journaled raw lines and the
   content-addressed evaluation, so clients dedup by id. *)
let replay ~env ~pool ~cfg ~shutdown ~latency ~admission journal emit =
  match cfg.journal with
  | None -> ()
  | Some path ->
    let entries = Journal.read path in
    List.iter
      (fun (e : Journal.entry) ->
        match e.Journal.response with
        | None -> ()
        | Some resp_line ->
          (match
             (Request.of_string e.Journal.line, Response.of_string resp_line)
           with
          | Ok req, Ok { Response.result = Ok payload; _ } ->
            Handler.warm ~env req payload
          | _ -> ());
          Obs.Counters.bump Obs.Counters.Serve_journal_replayed;
          emit resp_line)
      entries;
    let pending =
      List.filter (fun e -> e.Journal.response = None) entries
    in
    if pending <> [] && not (Exec.Cancel.cancelled shutdown) then begin
      let responses =
        process_batch ~env ~pool ?timeout_s:cfg.timeout_s ~cancel:shutdown
          ~latency ~admission
          (List.map (fun e -> e.Journal.line) pending)
      in
      let dones = ref [] in
      List.iter2
        (fun (e : Journal.entry) resp ->
          let line = Response.to_string resp in
          (match resp.Response.result with
          | Error { Response.code = Response.Cancelled | Response.Overloaded;
                    _ } ->
            (* still unanswered in substance: stays pending *)
            ()
          | _ -> dones := (e.Journal.seq, line) :: !dones);
          Obs.Counters.bump Obs.Counters.Serve_journal_replayed;
          emit line)
        pending responses;
      Journal.append_done journal (List.rev !dones)
    end

(* ------------------------------------------------------------------ *)
(* The loop                                                           *)
(* ------------------------------------------------------------------ *)

let serve_fds ~env ~pool ~cfg ~shutdown ~latency ~depth ~admission ~journal
    ~watchdog in_fd out_fd =
  let r = reader in_fd in
  let rec loop () =
    match next_line ~shutdown r with
    | None -> ()
    | Some first ->
      let batch = first :: drain_available ~shutdown r in
      Obs.Metrics.set depth (float_of_int (List.length batch));
      (* Write-ahead: the batch is journaled and fsync'd before any
         evaluation starts, so a crash from here on loses nothing. *)
      let seqs =
        match journal with
        | None -> []
        | Some j -> Journal.append_admits j batch
      in
      let responses =
        process_batch ~env ~pool ?timeout_s:cfg.timeout_s ~cancel:shutdown
          ~latency ~admission batch
      in
      let lines = List.map Response.to_string responses in
      (match journal with
      | None -> ()
      | Some j ->
        let dones =
          List.filter_map
            (fun (seq, (resp, line)) ->
              match resp.Response.result with
              | Error
                  { Response.code = Response.Cancelled | Response.Overloaded;
                    _ } ->
                None
              | _ -> Some (seq, line))
            (List.combine seqs (List.combine responses lines))
        in
        Journal.append_done j dones);
      watchdog ();
      List.iter (fun line -> write_all out_fd (line ^ "\n")) lines;
      loop ()
  in
  loop ()

let write_metrics ~metrics path =
  let json =
    Obs.Json.Obj
      [
        ("metrics", Obs.Metrics.to_json metrics);
        ( "counters",
          Obs.Json.Obj
            (List.map
               (fun (k, v) -> (k, Obs.Json.Int v))
               (Obs.Counters.sched_snapshot ())) );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string json ^ "\n"))

let run ?(config = default_config) () =
  if config.jobs < 1 then (
    prerr_endline "pipegen: serve: jobs must be at least 1";
    2)
  else begin
    let shutdown = Exec.Cancel.create () in
    let stop _ = Exec.Cancel.cancel shutdown in
    let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
    let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
    (* A client that hangs up mid-response must surface as EPIPE on
       the write (handled per connection), not as a process kill. *)
    let prev_pipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let metrics = Obs.Metrics.create () in
    let latency = Obs.Metrics.histogram metrics "serve.latency_ms" in
    let depth = Obs.Metrics.gauge metrics "serve.batch_depth" in
    let restarts_g = Obs.Metrics.gauge metrics "serve.pool_restarts" in
    let wedged_g = Obs.Metrics.gauge metrics "serve.wedged_domains" in
    let env = Handler.create_env ~capacity:config.capacity ~metrics () in
    let admission =
      make_admission ~max_queue:config.max_queue ~retries:config.retries ()
    in
    let chaos = Option.map Exec.Chaos.create config.chaos in
    let journal = Option.map Journal.open_ config.journal in
    let code =
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigint prev_int;
          Sys.set_signal Sys.sigterm prev_term;
          Option.iter (Sys.set_signal Sys.sigpipe) prev_pipe;
          Option.iter Journal.close journal;
          Option.iter
            (fun path -> write_metrics ~metrics path)
            config.metrics_out)
        (fun () ->
          try
            Exec.Pool.with_pool ~size:config.jobs ?chaos (fun pool ->
                (* The self-healing watchdog: respawn dead workers,
                   surface restart and wedge counts, once per batch. *)
                let watchdog () =
                  ignore (Exec.Pool.heal pool : int);
                  Obs.Metrics.set restarts_g
                    (float_of_int
                       (Obs.Counters.get Obs.Counters.Pool_restarts));
                  Obs.Metrics.set wedged_g
                    (float_of_int
                       (List.length (Exec.Pool.wedged pool)))
                in
                match config.socket with
                | None ->
                  (* stdio: replayed responses go to the client too *)
                  (match journal with
                  | None -> ()
                  | Some j ->
                    replay ~env ~pool ~cfg:config ~shutdown ~latency
                      ~admission j (fun line ->
                        write_all Unix.stdout (line ^ "\n")));
                  serve_fds ~env ~pool ~cfg:config ~shutdown ~latency ~depth
                    ~admission ~journal ~watchdog Unix.stdin Unix.stdout;
                  (* Clean end-of-input shutdown: every admitted
                     request was answered on the wire, so the journal
                     is done.  A signal (or crash) skips this — the
                     journal stays for the next process. *)
                  if not (Exec.Cancel.cancelled shutdown) then
                    Option.iter Journal.truncate journal;
                  0
                | Some path ->
                  (* socket: no client to re-emit to; replay completes
                     unfinished work into journal + verdict cache *)
                  (match journal with
                  | None -> ()
                  | Some j ->
                    replay ~env ~pool ~cfg:config ~shutdown ~latency
                      ~admission j (fun _ -> ()));
                  if Sys.file_exists path then Sys.remove path;
                  let sock =
                    Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
                  in
                  Fun.protect
                    ~finally:(fun () ->
                      (try Unix.close sock with Unix.Unix_error _ -> ());
                      if Sys.file_exists path then Sys.remove path)
                    (fun () ->
                      Unix.bind sock (Unix.ADDR_UNIX path);
                      Unix.listen sock 8;
                      let rec accept_loop () =
                        if Exec.Cancel.cancelled shutdown then ()
                        else
                          match Unix.accept sock with
                          | client, _ ->
                            Fun.protect
                              ~finally:(fun () ->
                                try Unix.close client
                                with Unix.Unix_error _ -> ())
                              (fun () ->
                                try
                                  serve_fds ~env ~pool ~cfg:config ~shutdown
                                    ~latency ~depth ~admission ~journal
                                    ~watchdog client client
                                with Client_gone -> ());
                            accept_loop ()
                          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                            accept_loop ()
                      in
                      accept_loop ();
                      0))
          with
          | Unix.Unix_error (e, fn, _) ->
            Printf.eprintf "pipegen: serve: %s: %s\n%!" fn
              (Unix.error_message e);
            1
          | Client_gone ->
            (* stdout vanished under stdio mode: nothing left to say *)
            0)
    in
    code
  end
