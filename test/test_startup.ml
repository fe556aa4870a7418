(* Start-up cost of the pipegen binary: no module initialiser may force
   a garbage collection.  A large array filled with a value still in the
   minor heap (a 4096-word memory image of a boxed zero) forces a minor
   collection to promote it, and a major cycle or two with it, in every
   process — before the command has done anything.  The runtime's exit
   report (OCAMLRUNPARAM=v=0x400) counts the collections. *)

let exe =
  match Sys.getenv_opt "PIPEGEN_EXE" with
  | Some e -> e
  | None -> "../bin/pipegen.exe"

(* The collections a run of [pipegen args] reports at exit. *)
let collections args =
  let err = Filename.temp_file "pipegen_gc" ".txt" in
  let cmd =
    Printf.sprintf "OCAMLRUNPARAM=v=0x400 %s %s > %s 2> %s"
      (Filename.quote exe) args Filename.null (Filename.quote err)
  in
  let status = Sys.command cmd in
  let ic = open_in err in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let report = lines [] in
  close_in ic;
  Sys.remove err;
  let count key =
    match
      List.find_map
        (fun l ->
          Option.join
            (Scanf.sscanf_opt l "%s@: %d" (fun k v ->
                 if String.equal k key then Some v else None)))
        report
    with
    | Some v -> v
    | None -> Alcotest.failf "%s: no %s in the runtime's exit report" args key
  in
  (status, count "minor_collections", count "major_collections")

let test_no_collection_at_start_up () =
  let status, minor, major = collections "--version" in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check int) "minor collections" 0 minor;
  Alcotest.(check int) "major collections" 0 major

let () =
  Alcotest.run "startup"
    [
      ( "start-up",
        [
          Alcotest.test_case "no forced collection" `Quick
            test_no_collection_at_start_up;
        ] );
    ]
