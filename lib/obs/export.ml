type entry = {
  experiment : string;
  ns_per_run : float option;
  cpi : float option;
  instructions : int option;
  cycles : int option;
  breakdown : (string * float) list;
  higher_is_better : bool;
}

let entry ?ns_per_run ?cpi ?instructions ?cycles ?(breakdown = [])
    ?(higher_is_better = false) experiment =
  { experiment; ns_per_run; cpi; instructions; cycles; breakdown; higher_is_better }

let schema_version = "pipeline-bench/1"

let entry_json e =
  let opt name f v = Option.map (fun v -> (name, f v)) v in
  Json.Obj
    (List.filter_map Fun.id
       [
         opt "ns_per_run" (fun f -> Json.Float f) e.ns_per_run;
         opt "cpi" (fun f -> Json.Float f) e.cpi;
         opt "instructions" (fun n -> Json.Int n) e.instructions;
         opt "cycles" (fun n -> Json.Int n) e.cycles;
         (match e.breakdown with
         | [] -> None
         | b ->
           Some
             ( "breakdown",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) b) ));
         (if e.higher_is_better then Some ("better", Json.String "higher")
          else None);
       ])

let to_json entries =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ( "experiments",
        Json.Obj (List.map (fun e -> (e.experiment, entry_json e)) entries) );
    ]

let ( let* ) r f = Result.bind r f

let entry_of_json name j =
  match Json.to_obj_opt j with
  | None -> Error (Printf.sprintf "experiment %s: not an object" name)
  | Some members ->
    let num key =
      match List.assoc_opt key members with
      | None -> Ok None
      | Some v -> (
        match Json.to_float_opt v with
        | Some f -> Ok (Some f)
        | None -> Error (Printf.sprintf "experiment %s: %s not a number" name key))
    in
    let int_field key =
      match List.assoc_opt key members with
      | None -> Ok None
      | Some v -> (
        match Json.to_int_opt v with
        | Some n -> Ok (Some n)
        | None ->
          Error (Printf.sprintf "experiment %s: %s not an integer" name key))
    in
    let* ns_per_run = num "ns_per_run" in
    let* cpi = num "cpi" in
    let* instructions = int_field "instructions" in
    let* cycles = int_field "cycles" in
    let* breakdown =
      match List.assoc_opt "breakdown" members with
      | None -> Ok []
      | Some (Json.Obj b) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.to_float_opt v with
            | Some f -> Ok ((k, f) :: acc)
            | None ->
              Error
                (Printf.sprintf "experiment %s: breakdown %s not a number" name
                   k))
          (Ok []) b
        |> Result.map List.rev
      | Some _ -> Error (Printf.sprintf "experiment %s: breakdown not an object" name)
    in
    let* higher_is_better =
      match List.assoc_opt "better" members with
      | None | Some (Json.String "lower") -> Ok false
      | Some (Json.String "higher") -> Ok true
      | Some _ ->
        Error
          (Printf.sprintf "experiment %s: better not \"higher\" or \"lower\"" name)
    in
    Ok
      {
        experiment = name;
        ns_per_run;
        cpi;
        instructions;
        cycles;
        breakdown;
        higher_is_better;
      }

let of_json j =
  match Json.member "schema" j with
  | Some (Json.String v) when v = schema_version -> (
    match Json.member "experiments" j with
    | Some (Json.Obj experiments) ->
      List.fold_left
        (fun acc (name, ej) ->
          let* acc = acc in
          let* e = entry_of_json name ej in
          Ok (e :: acc))
        (Ok []) experiments
      |> Result.map List.rev
    | Some _ | None -> Error "missing or malformed \"experiments\" object")
  | Some (Json.String v) ->
    Error (Printf.sprintf "unknown schema version %S (expected %S)" v schema_version)
  | Some _ | None -> Error "missing \"schema\" field"

let write_file ~path entries = Json.write_file ~path (to_json entries)

let read_file ~path =
  let* j = Json.read_file ~path in
  of_json j
