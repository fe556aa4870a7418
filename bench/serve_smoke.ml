(* End-to-end smoke of [pipegen serve] (the @check serve leg).

   Drives the real binary over pipes and sockets, in four legs:

   1. Basics — a small request batch goes through the serve loop, and
      the responses must (a) come back in input order, (b) match the
      direct CLI invocations byte for byte — text and exit code —
      since both front ends share one handler, (c) answer a repeated
      request, and a kernel-prefix alias of one, from the
      content-addressed verdict cache with a bit-identical payload,
      observable in the exported serve counters, and (d) answer a
      rewritten assembly file anew, as the CLI does on the new file.
   2. Crash recovery — a journaled server is SIGKILLed mid-batch
      (injected delays hold the batch in flight); a restarted server
      must replay the journal and answer every admitted request
      byte-identically to a clean run, with a nonzero
      serve_journal_replayed counter and a truncated journal after its
      own clean shutdown.
   3. Disconnect containment — on a Unix socket, a client that hangs
      up before its (delayed) response is written costs the server an
      EPIPE on that connection only: the next client gets full
      service and SIGTERM still shuts the daemon down cleanly.
   4. Chaos soak (only with --chaos SEED) — ≥200 requests against a
      server armed with seeded crash+delay+wedge+kill injection inside
      the retry budget: every response must be byte-identical to the
      clean reference run — nothing lost, duplicated or corrupted. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve_smoke: FAILED: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run a CLI subcommand, capturing stdout and the exit code. *)
let run_cli exe args =
  let cmd = String.concat " " (List.map Filename.quote (exe :: args)) in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (Buffer.contents buf, code)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> die "CLI `%s` was killed" cmd

let payload_string (r : Service.Response.t) =
  match r.Service.Response.result with
  | Ok p -> Obs.Json.to_string ~minify:true (Service.Response.payload_to_json p)
  | Error e -> die "unexpected error response: %s" (Service.Response.error_message e)

let response_text (r : Service.Response.t) =
  match r.Service.Response.result with
  | Ok p -> Service.Response.text p
  | Error e -> die "unexpected error response: %s" (Service.Response.error_message e)

(* ------------------------------------------------------------------ *)
(* Transport helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* Spawn `pipegen serve` over pipes.  cloexec: the child must not
   inherit the parent-side pipe ends, or closing [to_serve] would
   never deliver EOF (the child itself would still hold a write end of
   its own stdin). *)
let spawn_serve exe extra_args =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: extra_args))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  ( pid,
    Unix.out_channel_of_descr stdin_w,
    Unix.in_channel_of_descr stdout_r )

let send to_serve line =
  output_string to_serve (line ^ "\n");
  flush to_serve

(* One write, one flush: the whole batch reaches the server's reader
   in a single refill, i.e. as a single admission batch — which is
   what makes "journaled before evaluation" hold for the batch as a
   unit in the crash-recovery leg. *)
let send_batch to_serve lines =
  List.iter (fun l -> output_string to_serve (l ^ "\n")) lines;
  flush to_serve

(* One response line: the raw bytes and the decoded view. *)
let recv_opt from_serve =
  match input_line from_serve with
  | line -> (
    match Service.Response.of_string line with
    | Ok r -> Some (line, r)
    | Error msg -> die "undecodable response %S: %s" line msg)
  | exception End_of_file -> None

let recv from_serve =
  match recv_opt from_serve with
  | Some r -> r
  | None -> die "serve closed the stream early"

let require_id what ((_, r) : string * Service.Response.t) =
  match r.Service.Response.id with
  | Some id -> id
  | None -> die "%s: response carries no id" what

let wait_exit_0 what pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> die "%s: serve exited with %d" what n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> die "%s: serve was killed" what

let counter_of_metrics what path name =
  let counters =
    match Obs.Json.parse (read_file path) with
    | Error msg -> die "%s: bad metrics file: %s" what msg
    | Ok j -> (
      match Obs.Json.member "counters" j with
      | Some c -> c
      | None -> die "%s: metrics file has no counters" what)
  in
  match Option.bind (Obs.Json.member name counters) Obs.Json.to_int_opt with
  | Some v -> v
  | None -> die "%s: metrics file has no %s counter" what name

(* The [i]-th member of a family of requests that are pairwise
   distinct up to their id and never share a verdict-cache key across
   different wire forms (Toy3 appears only kernel-less — its
   evaluation ignores the kernel, which would otherwise alias keys):
   duplicates of a member are answered [cached] deterministically
   (coalesced in-batch, verdict-cache hits across batches), so
   responses are byte-stable however the stream happens to batch. *)
let kernels = [| "fib_10"; "memcpy_8"; "dep_chain_24" |]

let family_line ~id i =
  match i mod 14 with
  | 12 ->
    Printf.sprintf {|{"pipegen":1,"id":"%s","kind":"verify","machine":"toy3"}|}
      id
  | 13 ->
    Printf.sprintf {|{"pipegen":1,"id":"%s","kind":"stats","machine":"toy3"}|}
      id
  | i ->
    let machine = if i mod 2 = 0 then "dlx5" else "dlx6" in
    let kernel = kernels.(i / 2 mod 3) in
    let kind = if i / 6 mod 2 = 0 then "stats" else "verify" in
    Printf.sprintf
      {|{"pipegen":1,"id":"%s","kind":"%s","machine":"%s","kernel":"%s"}|} id
      kind machine kernel

(* Pipe a whole workload through one server run: write every line (the
   batch fits the pipe buffer), read one response per line, clean EOF
   shutdown.  Returns the raw response lines in arrival order. *)
let run_workload what exe extra_args lines =
  let pid, to_serve, from_serve = spawn_serve exe extra_args in
  List.iter (fun l -> output_string to_serve (l ^ "\n")) lines;
  flush to_serve;
  let responses = List.map (fun _ -> recv from_serve) lines in
  close_out to_serve;
  wait_exit_0 what pid;
  close_in from_serve;
  responses

(* ------------------------------------------------------------------ *)
(* Leg 1: order, cache hit, counters, CLI equivalence                 *)
(* ------------------------------------------------------------------ *)

let basics_leg exe =
  let metrics_file = Filename.temp_file "serve_smoke" ".json" in
  let pid, to_serve, from_serve =
    spawn_serve exe [ "-j"; "2"; "--metrics-out"; metrics_file ]
  in
  (* Batch 1: two distinct requests; responses must be in input order. *)
  send to_serve {|{"pipegen":1,"id":"v1","kind":"verify","machine":"toy3"}|};
  send to_serve {|{"pipegen":1,"id":"s1","kind":"stats","machine":"dlx5"}|};
  let _, rv = recv from_serve in
  let _, rs = recv from_serve in
  if rv.Service.Response.id <> Some "v1" || rs.Service.Response.id <> Some "s1"
  then die "responses out of input order";
  if rv.Service.Response.cached then die "first verify claims to be cached";
  (* Batch 2: repeat the verify — must be a verdict-cache hit with a
     bit-identical payload. *)
  send to_serve {|{"pipegen":1,"id":"v2","kind":"verify","machine":"toy3"}|};
  let _, rv2 = recv from_serve in
  if not rv2.Service.Response.cached then
    die "repeated request was not served from the verdict cache";
  if payload_string rv <> payload_string rv2 then
    die "cached verdict differs from the cold evaluation";
  (* The key digests the resolved program, not the request's wording:
     a kernel prefix naming s1's default kernel (fib_10) is a hit. *)
  send to_serve
    {|{"pipegen":1,"id":"s2","kind":"stats","machine":"dlx5","kernel":"fib"}|};
  let _, rs2 = recv from_serve in
  if not rs2.Service.Response.cached then
    die "kernel-prefix alias was not served from the verdict cache";
  if payload_string rs <> payload_string rs2 then
    die "kernel-prefix alias answered a different payload";
  (* An assembly file is read anew per request: a repeat hits, a
     rewritten file misses and answers the new program (one operand
     changed: same length and dynamic count, no load-use stall). *)
  let asm = Filename.temp_file "serve_smoke" ".s" in
  let write_asm text =
    let oc = open_out_bin asm in
    output_string oc text;
    close_out oc
  in
  let file_request id =
    Service.Request.to_string
      (Service.Request.make ~id
         ~spec:
           { Service.Request.default_spec with
             Service.Request.program_file = Some asm }
         Service.Request.Stats)
  in
  write_asm "  lw r1, 0(r0)\n  add r2, r1, r1\n  halt\n";
  send to_serve (file_request "p1");
  let _, rp1 = recv from_serve in
  send to_serve (file_request "p2");
  let _, rp2 = recv from_serve in
  if rp1.Service.Response.cached || not rp2.Service.Response.cached then
    die "assembly file: expected a cold answer, then a verdict-cache hit";
  write_asm "  lw r1, 0(r0)\n  add r2, r3, r3\n  halt\n";
  send to_serve (file_request "p3");
  let _, rp3 = recv from_serve in
  if rp3.Service.Response.cached then
    die "rewritten assembly file was answered from the verdict cache";
  close_out to_serve;
  wait_exit_0 "basics" pid;
  close_in from_serve;
  let cli_file, code_file = run_cli exe [ "stats"; "-m"; "dlx5"; "-p"; asm ] in
  Sys.remove asm;
  if cli_file <> response_text rp3 || code_file <> 0 then
    die "rewritten assembly file: serve differs from the CLI on the new file";
  if response_text rp1 = response_text rp3 then
    die "rewritten assembly file answered the old program";
  (* The cache hits must be visible in the exported serve counters. *)
  let counter = counter_of_metrics "basics" metrics_file in
  if counter "serve_cache_hits" < 3 then
    die "serve_cache_hits = %d, expected >= 3" (counter "serve_cache_hits");
  if counter "serve_requests" < 3 then
    die "serve_requests = %d, expected >= 3" (counter "serve_requests");
  Sys.remove metrics_file;
  (* CLI equivalence: same requests through the argv front end must
     print the same bytes and exit with the same code. *)
  let cli_verify, code_verify = run_cli exe [ "verify"; "toy3" ] in
  if cli_verify <> response_text rv then
    die "verify: serve text differs from CLI stdout";
  if code_verify <> Service.Response.exit_code rv then
    die "verify: exit codes differ (cli %d, serve %d)" code_verify
      (Service.Response.exit_code rv);
  let cli_stats, code_stats = run_cli exe [ "stats"; "-m"; "dlx5" ] in
  if cli_stats <> response_text rs then
    die "stats: serve text differs from CLI stdout";
  if code_stats <> Service.Response.exit_code rs then
    die "stats: exit codes differ (cli %d, serve %d)" code_stats
      (Service.Response.exit_code rs)

(* ------------------------------------------------------------------ *)
(* Leg 2: SIGKILL mid-batch, journal replay                            *)
(* ------------------------------------------------------------------ *)

let crash_recovery_leg exe =
  let journal = Filename.temp_file "serve_smoke_journal" ".jsonl" in
  let metrics_file = Filename.temp_file "serve_smoke_recovery" ".json" in
  let batch1 = List.init 3 (fun i -> family_line ~id:(Printf.sprintf "a%d" i) i)
  and batch2 =
    List.init 3 (fun i -> family_line ~id:(Printf.sprintf "b%d" i) (i + 3))
  in
  (* Reference: a clean unjournaled run fixes the expected bytes. *)
  let reference = Hashtbl.create 8 in
  List.iter
    (fun ((line, _) as resp) ->
      Hashtbl.replace reference (require_id "reference" resp) line)
    (run_workload "reference" exe [ "-j"; "2" ] (batch1 @ batch2));
  (* Run A: journaled, with injected 250ms delays so batch 2 is still
     in flight — admitted, fsync'd, unanswered — when SIGKILL lands. *)
  let pid_a, to_a, from_a =
    spawn_serve exe
      [
        "-j"; "2"; "--journal"; journal; "--chaos"; "1,delay=1.0,delay_ms=250";
      ]
  in
  send_batch to_a batch1;
  let seen_a = List.map (fun _ -> recv from_a) batch1 in
  List.iter
    (fun ((line, _) as resp) ->
      let id = require_id "run A" resp in
      match Hashtbl.find_opt reference id with
      | Some expect when expect = line -> ()
      | Some _ -> die "run A: response %s differs from the clean run" id
      | None -> die "run A: unexpected response id %s" id)
    seen_a;
  send_batch to_a batch2;
  (* The admits hit the journal (one fsync) before evaluation starts,
     and every batch-2 task sleeps 250ms first: 150ms in, the batch is
     durable but unanswered. *)
  Unix.sleepf 0.15;
  Unix.kill pid_a Sys.sigkill;
  (match Unix.waitpid [] pid_a with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> die "run A: expected death by SIGKILL");
  close_out to_a;
  close_in from_a;
  (* Run B: same journal, immediate EOF — everything it says comes
     from replay: completed entries verbatim, the killed batch
     re-evaluated.  Byte-identical to the clean run, every id exactly
     once, in journal order. *)
  let pid_b, to_b, from_b =
    spawn_serve exe
      [ "-j"; "2"; "--journal"; journal; "--metrics-out"; metrics_file ]
  in
  close_out to_b;
  let rec drain acc =
    match recv_opt from_b with
    | Some r -> drain (r :: acc)
    | None -> List.rev acc
  in
  let replayed = drain [] in
  wait_exit_0 "run B" pid_b;
  close_in from_b;
  let want_ids = [ "a0"; "a1"; "a2"; "b0"; "b1"; "b2" ] in
  let got_ids = List.map (require_id "run B") replayed in
  if got_ids <> want_ids then
    die "run B: replayed ids [%s], expected [%s]"
      (String.concat "; " got_ids)
      (String.concat "; " want_ids);
  List.iter
    (fun ((line, _) as resp) ->
      let id = require_id "run B" resp in
      if Hashtbl.find reference id <> line then
        die "run B: replayed response %s differs from the clean run" id)
    replayed;
  let replays = counter_of_metrics "run B" metrics_file "serve_journal_replayed" in
  if replays < List.length want_ids then
    die "serve_journal_replayed = %d, expected >= %d" replays
      (List.length want_ids);
  (* Run B shut down cleanly, so it must have truncated the journal. *)
  if (Unix.stat journal).Unix.st_size <> 0 then
    die "journal not truncated after a clean shutdown";
  Sys.remove journal;
  Sys.remove metrics_file

(* ------------------------------------------------------------------ *)
(* Leg 3: client disconnect fails only that connection                 *)
(* ------------------------------------------------------------------ *)

let disconnect_leg exe =
  let sock = Filename.temp_file "serve_smoke" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "-j"; "2"; "--socket"; sock;
        "--chaos"; "5,delay=1.0,delay_ms=150";
      |]
      devnull Unix.stdout Unix.stderr
  in
  Unix.close devnull;
  let rec await_socket n =
    if not (Sys.file_exists sock) then
      if n = 0 then die "socket %s never appeared" sock
      else begin
        Unix.sleepf 0.05;
        await_socket (n - 1)
      end
  in
  await_socket 100;
  (* Client A sends a request and vanishes; the injected 150ms delay
     guarantees the server's response write lands on a closed peer
     (EPIPE) — which must cost this connection only. *)
  let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect a (Unix.ADDR_UNIX sock);
  let line = family_line ~id:"gone" 0 ^ "\n" in
  ignore (Unix.write_substring a line 0 (String.length line) : int);
  Unix.close a;
  (* Client B still gets full service afterwards. *)
  let b = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect b (Unix.ADDR_UNIX sock);
  let line = family_line ~id:"alive" 1 ^ "\n" in
  ignore (Unix.write_substring b line 0 (String.length line) : int);
  let from_b = Unix.in_channel_of_descr b in
  let _, resp = recv from_b in
  if resp.Service.Response.id <> Some "alive" then
    die "disconnect: wrong response id after a dropped client";
  (match resp.Service.Response.result with
  | Ok _ -> ()
  | Error e ->
    die "disconnect: error after a dropped client: %s"
      (Service.Response.error_message e));
  Unix.close b;
  (* And SIGTERM still shuts the daemon down cleanly. *)
  Unix.kill pid Sys.sigterm;
  wait_exit_0 "disconnect" pid;
  if Sys.file_exists sock then die "socket file not removed on shutdown"

(* ------------------------------------------------------------------ *)
(* Leg 4: chaos soak (--chaos SEED)                                    *)
(* ------------------------------------------------------------------ *)

let chaos_soak_leg exe seed =
  let n = 208 in
  let lines = List.init n (fun i -> family_line ~id:(Printf.sprintf "k%d" i) i) in
  let clean =
    List.map fst (run_workload "soak reference" exe [ "-j"; "2" ] lines)
  in
  let journal = Filename.temp_file "serve_smoke_soak" ".jsonl" in
  let metrics_file = Filename.temp_file "serve_smoke_soak" ".json" in
  let spec =
    Printf.sprintf
      "%d,crash=0.15,crash_budget=3,delay=0.2,delay_ms=1,wedge=0.1,wedge_ms=2,wedge_budget=4,kill=0.15,kill_budget=2"
      seed
  in
  let chaotic =
    run_workload "soak" exe
      [
        "-j"; "2"; "--retries"; "3"; "--chaos"; spec;
        "--journal"; journal; "--metrics-out"; metrics_file;
      ]
      lines
  in
  if List.length chaotic <> n then
    die "soak: %d responses for %d requests" (List.length chaotic) n;
  List.iteri
    (fun i (expect, ((line, _) as resp)) ->
      let id = require_id "soak" resp in
      if id <> Printf.sprintf "k%d" i then
        die "soak: response %d has id %s (lost or duplicated work)" i id;
      if line <> expect then
        die "soak: response %s differs from the clean run under chaos" id)
    (List.combine clean chaotic);
  (* The injector really fired: kills surfaced as healed restarts. *)
  let restarts = counter_of_metrics "soak" metrics_file "pool_restarts" in
  if restarts < 1 then die "soak: pool_restarts = %d, expected >= 1" restarts;
  Sys.remove journal;
  Sys.remove metrics_file

let () =
  let exe, chaos_seed =
    match Array.to_list Sys.argv with
    | [ _; exe ] -> (exe, None)
    | [ _; exe; "--chaos"; seed ] -> (
      match int_of_string_opt seed with
      | Some s -> (exe, Some s)
      | None -> die "bad --chaos seed %s" seed)
    | _ -> die "usage: serve_smoke PIPEGEN_EXE [--chaos SEED]"
  in
  basics_leg exe;
  crash_recovery_leg exe;
  disconnect_leg exe;
  Option.iter (chaos_soak_leg exe) chaos_seed;
  print_endline
    (match chaos_seed with
    | Some seed ->
      Printf.sprintf
        "serve_smoke: OK (order, cache hit, counters, CLI equivalence, \
         crash recovery, disconnect containment, chaos soak seed %d)"
        seed
    | None ->
      "serve_smoke: OK (order, cache hit, counters, CLI equivalence, crash \
       recovery, disconnect containment)")
