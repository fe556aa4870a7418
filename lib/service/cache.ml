type t = {
  capacity : int;
  table : (string, Response.payload) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  mutex : Mutex.t;
  mutable n_hits : int;
  mutable n_misses : int;
  m_hits : Obs.Metrics.counter option;
  m_misses : Obs.Metrics.counter option;
}

let create ?(capacity = 256) ?metrics () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  let m name =
    Option.map (fun r -> Obs.Metrics.counter r ("serve.cache_" ^ name)) metrics
  in
  {
    capacity;
    table = Hashtbl.create 64;
    order = Queue.create ();
    mutex = Mutex.create ();
    n_hits = 0;
    n_misses = 0;
    m_hits = m "hits";
    m_misses = m "misses";
  }

(* The content address: the request's inputs, one line each, digested
   (cache.mli says why they are complete). *)
let key ~kind ~params ~shape ~instructions ~program ~data =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "kind %s\n" kind;
  List.iter (Printf.bprintf buf "param %s\n") params;
  Printf.bprintf buf "shape %s\ninstructions %d\nprogram" shape instructions;
  List.iter (Printf.bprintf buf " %d") program;
  Buffer.add_string buf "\ndata";
  List.iter (fun (addr, v) -> Printf.bprintf buf " %d:%d" addr v) data;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t k =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table k with
  | Some payload ->
    t.n_hits <- t.n_hits + 1;
    Obs.Counters.bump Obs.Counters.Serve_cache_hits;
    Option.iter Obs.Metrics.incr t.m_hits;
    Some payload
  | None ->
    t.n_misses <- t.n_misses + 1;
    Obs.Counters.bump Obs.Counters.Serve_cache_misses;
    Option.iter Obs.Metrics.incr t.m_misses;
    None

let add t k payload =
  with_lock t @@ fun () ->
  if not (Hashtbl.mem t.table k) then begin
    while Queue.length t.order >= t.capacity do
      Hashtbl.remove t.table (Queue.pop t.order)
    done;
    Hashtbl.replace t.table k payload;
    Queue.push k t.order
  end

let hits t = with_lock t @@ fun () -> t.n_hits
let misses t = with_lock t @@ fun () -> t.n_misses
let length t = with_lock t @@ fun () -> Hashtbl.length t.table
