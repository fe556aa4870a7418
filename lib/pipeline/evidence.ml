let shown = 16

type t = { total : int; messages : string list }

type sink = { mutable count : int; mutable kept : string list (* newest first *) }

let sink () = { count = 0; kept = [] }

let fail s fmt =
  s.count <- s.count + 1;
  if s.count <= shown then Format.kasprintf (fun m -> s.kept <- m :: s.kept) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let result s =
  if s.count = 0 then Ok ()
  else
    let more = s.count - shown in
    let kept =
      if more > 0 then Printf.sprintf "… and %d more" more :: s.kept else s.kept
    in
    Error { total = s.count; messages = List.rev kept }
