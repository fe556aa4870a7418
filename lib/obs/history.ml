type record = {
  commit : string;
  epoch : float;
  entries : Export.entry list;
}

let schema_version = "pipeline-bench-history/1"

let ( let* ) r f = Result.bind r f

let record_to_json r =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("commit", Json.String r.commit);
      ("epoch", Json.Float r.epoch);
      ("export", Export.to_json r.entries);
    ]

let record_of_json j =
  match Json.member "schema" j with
  | Some (Json.String v) when v = schema_version ->
    let* commit =
      match Json.member "commit" j with
      | Some (Json.String c) -> Ok c
      | _ -> Error "missing \"commit\" field"
    in
    let* epoch =
      match Option.bind (Json.member "epoch" j) Json.to_float_opt with
      | Some e -> Ok e
      | None -> Error "missing \"epoch\" field"
    in
    let* entries =
      match Json.member "export" j with
      | Some e -> Export.of_json e
      | None -> Error "missing \"export\" field"
    in
    Ok { commit; epoch; entries }
  | Some (Json.String v) ->
    Error
      (Printf.sprintf "unknown history schema %S (expected %S)" v
         schema_version)
  | Some _ | None -> Error "missing \"schema\" field"

let append ~path r =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~minify:true (record_to_json r));
      output_char oc '\n')

let read ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
    let lines = String.split_on_char '\n' contents in
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | line :: tl ->
        if String.trim line = "" then go (i + 1) acc tl
        else
          let* j =
            Result.map_error
              (fun m -> Printf.sprintf "%s:%d: %s" path i m)
              (Json.parse line)
          in
          let* r =
            Result.map_error
              (fun m -> Printf.sprintf "%s:%d: %s" path i m)
              (record_of_json j)
          in
          go (i + 1) (r :: acc) tl
    in
    go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Repository discovery (no subprocess)                                 *)
(* ------------------------------------------------------------------ *)

let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir ".git") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let default_path () =
  match repo_root () with
  | Some root -> Filename.concat root "BENCH_history.jsonl"
  | None -> "BENCH_history.jsonl"

let read_first_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some l -> Some (String.trim l)
  | None | (exception Sys_error _) -> None

let short h = if String.length h > 12 then String.sub h 0 12 else h

let is_hex s =
  String.length s >= 7
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

let resolve_ref gitdir r =
  match read_first_line (Filename.concat gitdir r) with
  | Some h when is_hex h -> Some (short h)
  | Some _ | None -> (
    (* The ref may only exist packed. *)
    match
      In_channel.with_open_text
        (Filename.concat gitdir "packed-refs")
        In_channel.input_lines
    with
    | exception Sys_error _ -> None
    | lines ->
      List.find_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i
            when String.sub line (i + 1) (String.length line - i - 1) = r ->
            let h = String.sub line 0 i in
            if is_hex h then Some (short h) else None
          | Some _ | None -> None)
        lines)

let current_commit () =
  match repo_root () with
  | None -> "unknown"
  | Some root -> (
    let gitdir = Filename.concat root ".git" in
    match read_first_line (Filename.concat gitdir "HEAD") with
    | Some head when String.length head > 5 && String.sub head 0 5 = "ref: "
      -> (
      let r = String.trim (String.sub head 5 (String.length head - 5)) in
      match resolve_ref gitdir r with Some h -> h | None -> "unknown")
    | Some head when is_hex head -> short head
    | Some _ | None -> "unknown")

(* ------------------------------------------------------------------ *)
(* Flattening: every numeric field as a named metric row                *)
(* ------------------------------------------------------------------ *)

let flatten entries =
  List.concat_map
    (fun (e : Export.entry) ->
      let n = e.Export.experiment in
      List.filter_map Fun.id
        [
          Option.map (fun v -> (n ^ ".ns_per_run", v)) e.Export.ns_per_run;
          Option.map (fun v -> (n ^ ".cpi", v)) e.Export.cpi;
          Option.map
            (fun v -> (n ^ ".instructions", float_of_int v))
            e.Export.instructions;
          Option.map
            (fun v -> (n ^ ".cycles", float_of_int v))
            e.Export.cycles;
        ]
      @ List.map (fun (k, v) -> (n ^ "." ^ k, v)) e.Export.breakdown)
    entries

(* ------------------------------------------------------------------ *)
(* Trend gate                                                           *)
(* ------------------------------------------------------------------ *)

type gate_kind = Work | Timing

type gate = {
  g_name : string;
  g_baseline : float;
  g_current : float;
  g_delta_pct : float;
  g_kind : gate_kind;
}

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let pct ~baseline ~current =
  if baseline = 0.0 then if current = 0.0 then 0.0 else infinity
  else (current -. baseline) /. baseline *. 100.0

let gate ~kind ~name ~baseline ~current =
  {
    g_name = name;
    g_baseline = baseline;
    g_current = current;
    g_delta_pct = pct ~baseline ~current;
    g_kind = kind;
  }

(* The last [k] records, newest first. *)
let window ~k records =
  let rec take n = function
    | [] -> []
    | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl
  in
  take k (List.rev records)

let trend_gate ?(k = 5) ?(tol = 0.5) ?(min_records = 3) ~history entries =
  let recent = window ~k history in
  let gates = ref [] in
  (* WORK.* rows: exact comparison against the most recent record that
     carries the row.  Every numeric field participates. *)
  let work_current =
    flatten
      (List.filter
         (fun (e : Export.entry) -> has_prefix "WORK." e.Export.experiment)
         entries)
  in
  let work_baseline =
    List.find_map
      (fun r ->
        let rows =
          flatten
            (List.filter
               (fun (e : Export.entry) ->
                 has_prefix "WORK." e.Export.experiment)
               r.entries)
        in
        if rows = [] then None else Some rows)
      recent
  in
  (match work_baseline with
  | None -> ()
  | Some baseline_rows ->
    List.iter
      (fun (name, bv) ->
        match List.assoc_opt name work_current with
        | Some cv ->
          if cv <> bv then
            gates := gate ~kind:Work ~name ~baseline:bv ~current:cv :: !gates
        | None ->
          gates :=
            gate ~kind:Work ~name ~baseline:bv ~current:Float.nan :: !gates)
      baseline_rows);
  (* Timing rows: a tolerance band over the window.  [SCHED.*] rows
     never carry ns_per_run, but exclude them defensively anyway. *)
  List.iter
    (fun (e : Export.entry) ->
      let name = e.Export.experiment in
      if not (has_prefix "WORK." name || has_prefix "SCHED." name) then
        match e.Export.ns_per_run with
        | None -> ()
        | Some current ->
          let past =
            List.filter_map
              (fun r ->
                List.find_map
                  (fun (b : Export.entry) ->
                    if b.Export.experiment = name then b.Export.ns_per_run
                    else None)
                  r.entries)
              recent
          in
          if List.length past >= min_records then
            let row = name ^ ".ns_per_run" in
            if e.Export.higher_is_better then begin
              (* Higher is better: regress against the window's best. *)
              let best = List.fold_left max neg_infinity past in
              if current < best *. (1.0 -. tol) then
                gates :=
                  gate ~kind:Timing ~name:row ~baseline:best ~current
                  :: !gates
            end
            else begin
              let best = List.fold_left min infinity past in
              if current > best *. (1.0 +. tol) then
                gates :=
                  gate ~kind:Timing ~name:row ~baseline:best ~current
                  :: !gates
            end)
    entries;
  List.sort (fun a b -> String.compare a.g_name b.g_name) !gates

(* Work scores are exact integers and must print as such; timings keep
   6 significant digits. *)
let num v =
  if Float.is_nan v then "(missing)"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let pp_gates ppf gates =
  Format.fprintf ppf "  %-48s %14s %14s %10s@." "row" "baseline" "current"
    "delta";
  List.iter
    (fun g ->
      let delta =
        match g.g_kind with
        | Work ->
          if Float.is_nan g.g_current then "gone"
          else Printf.sprintf "%+.0f" (g.g_current -. g.g_baseline)
        | Timing -> Printf.sprintf "%+.1f%%" g.g_delta_pct
      in
      Format.fprintf ppf "  %-48s %14s %14s %10s@." g.g_name
        (num g.g_baseline) (num g.g_current) delta)
    gates

(* ------------------------------------------------------------------ *)
(* Selection, diff, trends                                              *)
(* ------------------------------------------------------------------ *)

let select records spec =
  let n = List.length records in
  match int_of_string_opt spec with
  | Some i ->
    let i = if i < 0 then n + i else i in
    if i >= 0 && i < n then Ok (List.nth records i)
    else Error (Printf.sprintf "record index %s out of range (0..%d)" spec (n - 1))
  | None -> (
    match
      List.filter (fun r -> has_prefix spec r.commit) records
    with
    | [ r ] -> Ok r
    | [] -> Error (Printf.sprintf "no record with commit prefix %S" spec)
    | _ :: _ ->
      Error (Printf.sprintf "commit prefix %S is ambiguous" spec))

type diff_row = {
  d_name : string;
  d_a : float option;
  d_b : float option;
}

let diff a b =
  let fa = flatten a.entries and fb = flatten b.entries in
  let names =
    List.sort_uniq String.compare (List.map fst fa @ List.map fst fb)
  in
  List.filter_map
    (fun name ->
      let va = List.assoc_opt name fa and vb = List.assoc_opt name fb in
      if va = vb then None else Some { d_name = name; d_a = va; d_b = vb })
    names

let label r =
  let tm = Unix.gmtime r.epoch in
  Printf.sprintf "%s (%04d-%02d-%02d)" r.commit (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let pp_diff ~a ~b ppf rows =
  Format.fprintf ppf "  %-48s %14s %14s %10s@." "metric" (label a) (label b)
    "delta";
  List.iter
    (fun { d_name; d_a; d_b } ->
      let opt = function Some v -> num v | None -> "(absent)" in
      let delta =
        match (d_a, d_b) with
        | Some va, Some vb when va <> 0.0 ->
          Printf.sprintf "%+.1f%%" ((vb -. va) /. va *. 100.0)
        | _ -> ""
      in
      Format.fprintf ppf "  %-48s %14s %14s %10s@." d_name (opt d_a)
        (opt d_b) delta)
    rows

let pp_trends ?(k = 10) ppf records =
  match window ~k records with
  | [] -> Format.fprintf ppf "  (empty history)@."
  | newest :: _ as recent ->
    let oldest = List.nth recent (List.length recent - 1) in
    Format.fprintf ppf "  %d record(s), %s .. %s@." (List.length records)
      (label oldest) (label newest);
    let f_new = flatten newest.entries and f_old = flatten oldest.entries in
    let section title pred =
      let rows =
        List.filter (fun (name, _) -> pred name) f_new
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      if rows <> [] then begin
        Format.fprintf ppf "@.  %s@." title;
        Format.fprintf ppf "  %-48s %14s %14s %10s@." "metric" "oldest"
          "newest" "delta";
        List.iter
          (fun (name, v_new) ->
            match List.assoc_opt name f_old with
            | Some v_old ->
              let delta =
                if v_old = 0.0 then
                  if v_new = 0.0 then "" else "new!=0"
                else Printf.sprintf "%+.1f%%" ((v_new -. v_old) /. v_old *. 100.0)
              in
              Format.fprintf ppf "  %-48s %14s %14s %10s@." name (num v_old)
                (num v_new) delta
            | None ->
              Format.fprintf ppf "  %-48s %14s %14s %10s@." name "-"
                (num v_new) "new")
          rows
      end
    in
    section "deterministic work scores (gate: exact)" (has_prefix "WORK.");
    section "timings (gate: trend band)" (fun name ->
        (not (has_prefix "WORK." name || has_prefix "SCHED." name))
        && Filename.check_suffix name ".ns_per_run");
    section "scheduling (informational)" (has_prefix "SCHED.")
