exception Compile_error of string
exception Run_error of string

let cerr fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt
let rerr fmt = Format.kasprintf (fun s -> raise (Run_error s)) fmt

(* One tape instruction; [dst] is the slot written. *)
type op =
  | O_unop of Expr.unop * int
  | O_binop of Expr.binop * int * int
  | O_mux of int * int * int
  | O_concat of int * int
  | O_slice of int * int * int
  | O_zext of int * int
  | O_sext of int * int
  | O_file_read of int * int * int  (* file index, addr slot, data width *)

type step = { dst : int; op : op }

(* Hash-consing key: structure plus child slots.  Two syntactically
   different subtrees that compile to the same key share a slot. *)
type key =
  | K_const of Bitvec.t
  | K_unop of Expr.unop * int
  | K_binop of Expr.binop * int * int
  | K_mux of int * int * int
  | K_concat of int * int
  | K_slice of int * int * int
  | K_zext of int * int
  | K_sext of int * int
  | K_file_read of int * int

type builder = {
  auto : bool;
  mutable n_slots : int;
  mutable widths : int array;  (* slot -> width, grown on demand *)
  mutable consts_rev : (int * Bitvec.t) list;
  mutable tape_rev : step list;
  b_inputs : (string, int * int) Hashtbl.t;   (* name -> slot, width *)
  b_defines : (string, int * int) Hashtbl.t;  (* name -> slot, width *)
  b_files : (string, int * int) Hashtbl.t;    (* name -> index, width *)
  mutable n_files : int;
  cse : (key, int) Hashtbl.t;
  mutable built : bool;
}

type t = {
  p_n_slots : int;
  p_widths : int array;
  consts : (int * Bitvec.t) array;
  tape : step array;
  p_inputs : (string, int * int) Hashtbl.t;
  p_defines : (string, int * int) Hashtbl.t;
  p_files : (string, int * int) Hashtbl.t;
  file_names : string array;  (* index -> name, for errors *)
  names : string option array;  (* slot -> name view *)
}

(* Scalar slots hold raw ints, each masked to its slot's width (the
   representation the lane engine uses for its wide slots).  Values
   are boxed as [Bitvec.t] only where they cross the API: [set] unboxes
   (with its width check), [get] and [read_name] box, file readers take
   a raw address and return a checked entry. *)
type instance = {
  plan : t;
  slots : int array;
  files : (int -> Bitvec.t) array;
}

let alloc b w =
  let s = b.n_slots in
  b.n_slots <- s + 1;
  let cap = Array.length b.widths in
  if s >= cap then begin
    let widths = Array.make (max 16 (2 * cap)) 0 in
    Array.blit b.widths 0 widths 0 cap;
    b.widths <- widths
  end;
  b.widths.(s) <- w;
  s

let width_ok w = w >= 1 && w <= Bitvec.max_width

let add_input b name w =
  if not (width_ok w) then cerr "input %s: width %d" name w;
  match Hashtbl.find_opt b.b_inputs name with
  | Some (s, w') ->
    if w' <> w then
      cerr "input %s: declared width %d, expression expects %d" name w' w;
    s
  | None ->
    let s = alloc b w in
    Hashtbl.replace b.b_inputs name (s, w);
    s

let add_file b name w =
  if not (width_ok w) then cerr "file %s: width %d" name w;
  match Hashtbl.find_opt b.b_files name with
  | Some (i, w') ->
    if w' <> w then
      cerr "file %s: declared width %d, expression expects %d" name w' w;
    i
  | None ->
    if not b.auto then cerr "unknown register file %s" name;
    let i = b.n_files in
    b.n_files <- i + 1;
    Hashtbl.replace b.b_files name (i, w);
    i

let create ?(auto = false) ?(inputs = []) ?(files = []) () =
  let b =
    {
      auto;
      n_slots = 0;
      widths = Array.make 64 0;
      consts_rev = [];
      tape_rev = [];
      b_inputs = Hashtbl.create 64;
      b_defines = Hashtbl.create 64;
      b_files = Hashtbl.create 4;
      n_files = 0;
      cse = Hashtbl.create 256;
      built = false;
    }
  in
  List.iter (fun (n, w) -> ignore (add_input b n w)) inputs;
  List.iter
    (fun (n, w) ->
      if not (width_ok w) then cerr "file %s: width %d" n w;
      if not (Hashtbl.mem b.b_files n) then begin
        Hashtbl.replace b.b_files n (b.n_files, w);
        b.n_files <- b.n_files + 1
      end)
    files;
  b

let intern b key w op =
  match Hashtbl.find_opt b.cse key with
  | Some s -> s
  | None ->
    let s = alloc b w in
    Hashtbl.replace b.cse key s;
    b.tape_rev <- { dst = s; op } :: b.tape_rev;
    s

let intern_const b v =
  let key = K_const v in
  match Hashtbl.find_opt b.cse key with
  | Some s -> s
  | None ->
    let s = alloc b (Bitvec.width v) in
    Hashtbl.replace b.cse key s;
    b.consts_rev <- (s, v) :: b.consts_rev;
    s

(* Compile one expression bottom-up.  Width rules mirror [Expr.width],
   but run over already-compiled child slots, so each shared node is
   checked (and compiled) exactly once. *)
let rec compile b e =
  let w s = b.widths.(s) in
  match e with
  | Expr.Const v -> intern_const b v
  | Expr.Input (name, wi) -> (
    match Hashtbl.find_opt b.b_defines name with
    | Some (s, wd) ->
      if wd <> wi then
        cerr "input %s: defined width %d, expression expects %d" name wd wi;
      s
    | None ->
      if b.auto || Hashtbl.mem b.b_inputs name then add_input b name wi
      else cerr "unknown input %s" name)
  | Expr.Unop (op, a) ->
    let sa = compile b a in
    let wr =
      match op with
      | Expr.Not | Expr.Neg -> w sa
      | Expr.Reduce_or | Expr.Reduce_and -> 1
    in
    intern b (K_unop (op, sa)) wr (O_unop (op, sa))
  | Expr.Binop (op, a, bb) ->
    let sa = compile b a in
    let sb = compile b bb in
    let wa = w sa and wb = w sb in
    let wr =
      match op with
      | Expr.Add | Expr.Sub | Expr.Mul | Expr.And | Expr.Or | Expr.Xor ->
        if wa <> wb then cerr "binop operand widths %d vs %d" wa wb;
        wa
      | Expr.Eq | Expr.Ne | Expr.Ltu | Expr.Lts ->
        if wa <> wb then cerr "comparison operand widths %d vs %d" wa wb;
        1
      | Expr.Shl | Expr.Shr | Expr.Sra -> wa
    in
    intern b (K_binop (op, sa, sb)) wr (O_binop (op, sa, sb))
  | Expr.Mux (s, a, bb) ->
    let ss = compile b s in
    let sa = compile b a in
    let sb = compile b bb in
    if w ss <> 1 then cerr "mux select width %d (want 1)" (w ss);
    if w sa <> w sb then cerr "mux branch widths %d vs %d" (w sa) (w sb);
    intern b (K_mux (ss, sa, sb)) (w sa) (O_mux (ss, sa, sb))
  | Expr.Concat (hi, lo) ->
    let sh = compile b hi in
    let sl = compile b lo in
    let wr = w sh + w sl in
    if wr > Bitvec.max_width then cerr "concat result width %d too large" wr;
    intern b (K_concat (sh, sl)) wr (O_concat (sh, sl))
  | Expr.Slice (a, hi, lo) ->
    let sa = compile b a in
    let wa = w sa in
    if lo < 0 || hi < lo || hi >= wa then
      cerr "slice [%d:%d] of %d-bit expression" hi lo wa;
    intern b (K_slice (sa, hi, lo)) (hi - lo + 1) (O_slice (sa, hi, lo))
  | Expr.Zext (a, wz) ->
    let sa = compile b a in
    let wa = w sa in
    if wz < wa || wz > Bitvec.max_width then cerr "extend %d-bit to %d bits" wa wz;
    if wz = wa then sa else intern b (K_zext (sa, wz)) wz (O_zext (sa, wz))
  | Expr.Sext (a, wz) ->
    let sa = compile b a in
    let wa = w sa in
    if wz < wa || wz > Bitvec.max_width then cerr "extend %d-bit to %d bits" wa wz;
    if wz = wa then sa else intern b (K_sext (sa, wz)) wz (O_sext (sa, wz))
  | Expr.File_read { file; data_width; addr } ->
    let sa = compile b addr in
    let fi = add_file b file data_width in
    intern b (K_file_read (fi, sa)) data_width (O_file_read (fi, sa, data_width))

let check_built b = if b.built then cerr "builder already built"

let root b e =
  check_built b;
  compile b e

let define b name e =
  check_built b;
  if Hashtbl.mem b.b_defines name then cerr "duplicate definition of %s" name;
  if Hashtbl.mem b.b_inputs name then
    cerr "definition of %s collides with a declared input" name;
  let s = compile b e in
  Hashtbl.replace b.b_defines name (s, b.widths.(s));
  s

let input b name w =
  check_built b;
  match Hashtbl.find_opt b.b_defines name with
  | Some _ -> cerr "input %s collides with a definition" name
  | None -> add_input b name w

let build b =
  check_built b;
  b.built <- true;
  let file_names = Array.make b.n_files "" in
  Hashtbl.iter (fun n (i, _) -> file_names.(i) <- n) b.b_files;
  let names = Array.make (max b.n_slots 1) None in
  Hashtbl.iter (fun n (s, _) -> names.(s) <- Some n) b.b_inputs;
  Hashtbl.iter (fun n (s, _) -> names.(s) <- Some n) b.b_defines;
  {
    p_n_slots = b.n_slots;
    p_widths = Array.sub b.widths 0 (max b.n_slots 1);
    consts = Array.of_list (List.rev b.consts_rev);
    tape = Array.of_list (List.rev b.tape_rev);
    p_inputs = b.b_inputs;
    p_defines = b.b_defines;
    p_files = b.b_files;
    file_names;
    names;
  }

let n_instrs p = Array.length p.tape
let input_slot p n = Option.map fst (Hashtbl.find_opt p.p_inputs n)
let define_slot p n = Option.map fst (Hashtbl.find_opt p.p_defines n)

let slot_of_name p n =
  match define_slot p n with Some _ as s -> s | None -> input_slot p n

let iter_inputs p f =
  Hashtbl.iter (fun n (slot, width) -> f n ~slot ~width) p.p_inputs

let iter_files p f =
  Hashtbl.iter (fun n (index, width) -> f n ~index ~width) p.p_files

let slot_name p s =
  if s >= 0 && s < Array.length p.names then p.names.(s) else None

let unbound_reader p i _ = rerr "unbound register file %s" p.file_names.(i)

let load_consts inst =
  Array.iter (fun (s, v) -> inst.slots.(s) <- Bitvec.to_int v) inst.plan.consts

let instance p =
  let files =
    Array.init (Array.length p.file_names) (fun i -> unbound_reader p i)
  in
  let inst = { plan = p; slots = Array.make (max p.p_n_slots 1) 0; files } in
  load_consts inst;
  inst

let reset inst =
  let p = inst.plan in
  Array.fill inst.slots 0 (Array.length inst.slots) 0;
  load_consts inst;
  for i = 0 to Array.length inst.files - 1 do
    inst.files.(i) <- unbound_reader p i
  done

let bind_file inst name reader =
  match Hashtbl.find_opt inst.plan.p_files name with
  | None -> ()
  | Some (i, _) -> inst.files.(i) <- reader

let set inst s v =
  let w = inst.plan.p_widths.(s) in
  if Bitvec.width v <> w then
    rerr "input %s: stored width %d, expression expects %d"
      (match slot_name inst.plan s with Some n -> n | None -> string_of_int s)
      (Bitvec.width v) w;
  inst.slots.(s) <- Bitvec.to_int v

(* Raw-int mirrors of the Bitvec primitives, shared by the scalar and
   lane interpreters.  These must agree with bitvec.ml bit for bit,
   including at width 62 (all-ones mask [max_int]; [v - 2^62] still
   fits a 63-bit int). *)
let maskw w = if w = Bitvec.max_width then max_int else (1 lsl w) - 1

let signedw w v = if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

(* Every operand is already masked to its slot's width, so only ops
   that can carry, borrow or smear ones upward mask their result. *)
let run inst =
  let s = inst.slots in
  let p = inst.plan in
  let widths = p.p_widths in
  let tape = p.tape in
  Obs.Counters.bump Obs.Counters.Plan_runs;
  Obs.Counters.add Obs.Counters.Plan_ops (Array.length tape);
  for i = 0 to Array.length tape - 1 do
    let { dst; op } = Array.unsafe_get tape i in
    let v =
      match op with
      | O_unop (o, a) -> (
        let va = s.(a) in
        match o with
        | Expr.Not -> lnot va land maskw widths.(dst)
        | Expr.Neg -> -va land maskw widths.(dst)
        | Expr.Reduce_or -> Bool.to_int (va <> 0)
        | Expr.Reduce_and -> Bool.to_int (va = maskw widths.(a)))
      | O_binop (o, a, b) -> (
        let va = s.(a) and vb = s.(b) in
        match o with
        | Expr.Add -> (va + vb) land maskw widths.(dst)
        | Expr.Sub -> (va - vb) land maskw widths.(dst)
        | Expr.Mul -> va * vb land maskw widths.(dst)
        | Expr.And -> va land vb
        | Expr.Or -> va lor vb
        | Expr.Xor -> va lxor vb
        | Expr.Eq -> Bool.to_int (va = vb)
        | Expr.Ne -> Bool.to_int (va <> vb)
        | Expr.Ltu -> Bool.to_int (va < vb)
        | Expr.Lts ->
          let w = widths.(a) in
          Bool.to_int (signedw w va < signedw w vb)
        | Expr.Shl ->
          let w = widths.(dst) in
          if vb >= w then 0 else (va lsl vb) land maskw w
        | Expr.Shr -> if vb >= widths.(dst) then 0 else va lsr vb
        | Expr.Sra ->
          let w = widths.(dst) in
          (signedw w va asr min vb (w - 1)) land maskw w)
      | O_mux (c, a, b) -> if s.(c) <> 0 then s.(a) else s.(b)
      | O_concat (a, b) -> (s.(a) lsl widths.(b)) lor s.(b)
      | O_slice (a, hi, lo) -> (s.(a) lsr lo) land maskw (hi - lo + 1)
      | O_zext (a, _) -> s.(a)
      | O_sext (a, w) -> signedw widths.(a) s.(a) land maskw w
      | O_file_read (f, a, w) ->
        let v = inst.files.(f) s.(a) in
        if Bitvec.width v <> w then
          rerr "file %s: stored width %d, expression expects %d"
            p.file_names.(f) (Bitvec.width v) w;
        Bitvec.to_int v
    in
    s.(dst) <- v
  done

let get inst slot = Bitvec.make ~width:inst.plan.p_widths.(slot) inst.slots.(slot)
let get_raw inst slot = inst.slots.(slot)
let get_bool inst slot = inst.slots.(slot) <> 0

let read_name inst name =
  match slot_of_name inst.plan name with
  | Some s -> Some (get inst s)
  | None -> None

let slot_width p s = p.p_widths.(s)

(* ------------------------------------------------------------------ *)
(* Bit-parallel lane evaluation                                        *)
(* ------------------------------------------------------------------ *)

(* A lane instance evaluates the same tape for up to [l_cap] programs
   at once.  Width-1 slots live as one packed word per slot (bit [l] =
   lane [l]); wider slots as one raw int per lane per slot.  Register
   files are one int array per lane, bound by the lane state.

   Garbage discipline: bits [l_active ..] of a packed word, and
   entries [l_active ..] of a per-lane array, are unspecified.  Word
   ops run over the whole word and only mask where an [lnot] would
   otherwise smear ones upward; per-lane ops only visit active lanes.

   [run_lanes] deliberately counts nothing: callers count the
   equivalent scalar work per running lane, so the WORK totals stay
   bit-identical to one-lane runs. *)
type lanes = {
  l_plan : t;
  l_cap : int;
  l_all : int;  (* mask_of_count l_cap *)
  mutable l_active : int;
  mutable l_mask : int;  (* mask_of_count l_active *)
  l_bool : bool array;  (* slot -> width = 1 *)
  l_words : int array;  (* packed word, one per width-1 slot *)
  l_vals : int array array;  (* lane-indexed ints, one row per wide slot *)
  l_files : int array array array;  (* file -> lane -> contents; [||] unbound *)
}

let lanes ?(capacity = Lanes.max_lanes) p =
  if capacity < 1 || capacity > Lanes.max_lanes then
    invalid_arg (Printf.sprintf "Plan.lanes: capacity %d" capacity);
  let n = max p.p_n_slots 1 in
  let l_bool = Array.init n (fun s -> p.p_widths.(s) = 1) in
  let ln =
    {
      l_plan = p;
      l_cap = capacity;
      l_all = Lanes.mask_of_count capacity;
      l_active = capacity;
      l_mask = Lanes.mask_of_count capacity;
      l_bool;
      l_words = Array.make n 0;
      l_vals =
        Array.init n (fun s ->
            if l_bool.(s) then [||] else Array.make capacity 0);
      l_files = Array.make (Array.length p.file_names) [||];
    }
  in
  (* Constants are replicated across every lane once: no tape step
     writes a const slot, so they survive any number of runs. *)
  Array.iter
    (fun (s, v) ->
      if l_bool.(s) then
        ln.l_words.(s) <- (if Bitvec.to_bool v then ln.l_all else 0)
      else Array.fill ln.l_vals.(s) 0 capacity (Bitvec.to_int v))
    p.consts;
  ln

let lanes_plan ln = ln.l_plan
let lanes_active ln = ln.l_active

let lanes_set_active ln n =
  if n < 1 || n > ln.l_cap then
    invalid_arg (Printf.sprintf "Plan.lanes_set_active: %d" n);
  ln.l_active <- n;
  ln.l_mask <- Lanes.mask_of_count n

let lanes_is_bool ln s = ln.l_bool.(s)
let lanes_word ln s = ln.l_words.(s)
let lanes_set_word ln s w = ln.l_words.(s) <- w
let lanes_ints ln s = ln.l_vals.(s)

let lanes_get ln s l =
  if ln.l_bool.(s) then (ln.l_words.(s) lsr l) land 1 else ln.l_vals.(s).(l)

let lanes_bind_file ln name rows =
  match Hashtbl.find_opt ln.l_plan.p_files name with
  | None -> ()
  | Some (i, _) -> ln.l_files.(i) <- rows

let run_lanes ln =
  let p = ln.l_plan in
  let words = ln.l_words and vals = ln.l_vals and isb = ln.l_bool in
  let widths = p.p_widths in
  let act = ln.l_active in
  let amask = ln.l_mask in
  let geti s l =
    if Array.unsafe_get isb s then (Array.unsafe_get words s lsr l) land 1
    else Array.unsafe_get (Array.unsafe_get vals s) l
  in
  let tape = p.tape in
  for i = 0 to Array.length tape - 1 do
    let { dst; op } = Array.unsafe_get tape i in
    match op with
    | O_unop (o, a) ->
      if isb.(dst) then begin
        if isb.(a) then
          words.(dst) <-
            (match o with
            | Expr.Not -> lnot words.(a) land amask
            | Expr.Neg | Expr.Reduce_or | Expr.Reduce_and -> words.(a))
        else begin
          (* reduction of a wide operand into a packed bit *)
          let va = vals.(a) in
          let full = maskw widths.(a) in
          let w = ref 0 in
          (match o with
          | Expr.Reduce_or ->
            for l = 0 to act - 1 do
              if (Array.unsafe_get va l) <> 0 then w := !w lor (1 lsl l)
            done
          | Expr.Reduce_and ->
            for l = 0 to act - 1 do
              if (Array.unsafe_get va l) = full then w := !w lor (1 lsl l)
            done
          | Expr.Not | Expr.Neg -> assert false);
          words.(dst) <- !w
        end
      end
      else begin
        let va = vals.(a) and vd = vals.(dst) in
        let m = maskw widths.(dst) in
        match o with
        | Expr.Not ->
          for l = 0 to act - 1 do
            Array.unsafe_set vd l (lnot (Array.unsafe_get va l) land m)
          done
        | Expr.Neg ->
          for l = 0 to act - 1 do
            Array.unsafe_set vd l (-(Array.unsafe_get va l) land m)
          done
        | Expr.Reduce_or | Expr.Reduce_and -> assert false
      end
    | O_binop (o, a, b) ->
      if isb.(dst) then begin
        if isb.(a) && isb.(b) then
          (* both operands packed: one word op serves every lane *)
          let wa = words.(a) and wb = words.(b) in
          words.(dst) <-
            (match o with
            | Expr.And | Expr.Mul -> wa land wb
            | Expr.Or -> wa lor wb
            | Expr.Xor | Expr.Add | Expr.Sub | Expr.Ne -> wa lxor wb
            | Expr.Eq -> lnot (wa lxor wb) land amask
            | Expr.Ltu -> lnot wa land wb land amask
            | Expr.Lts -> wa land lnot wb land amask
            | Expr.Shl | Expr.Shr -> wa land lnot wb land amask
            | Expr.Sra -> wa)
        else begin
          let w = ref 0 in
          (match o with
          | Expr.Eq ->
            let va = vals.(a) and vb = vals.(b) in
            for l = 0 to act - 1 do
              if (Array.unsafe_get va l) = (Array.unsafe_get vb l) then w := !w lor (1 lsl l)
            done
          | Expr.Ne ->
            let va = vals.(a) and vb = vals.(b) in
            for l = 0 to act - 1 do
              if (Array.unsafe_get va l) <> (Array.unsafe_get vb l) then w := !w lor (1 lsl l)
            done
          | Expr.Ltu ->
            (* masked values are non-negative: plain int compare *)
            let va = vals.(a) and vb = vals.(b) in
            for l = 0 to act - 1 do
              if (Array.unsafe_get va l) < (Array.unsafe_get vb l) then w := !w lor (1 lsl l)
            done
          | Expr.Lts ->
            let va = vals.(a) and vb = vals.(b) in
            let wd = widths.(a) in
            for l = 0 to act - 1 do
              if signedw wd (Array.unsafe_get va l) < signedw wd (Array.unsafe_get vb l) then
                w := !w lor (1 lsl l)
            done
          | Expr.Shl | Expr.Shr ->
            (* width-1 value, wide shift amount: survives only amt=0 *)
            let wa = words.(a) in
            for l = 0 to act - 1 do
              if geti b l = 0 then w := !w lor (wa land (1 lsl l))
            done
          | Expr.Sra ->
            (* amt clamped to width-1 = 0: identity *)
            w := words.(a)
          | Expr.Add | Expr.Sub | Expr.Mul | Expr.And | Expr.Or | Expr.Xor ->
            (* equal operand widths: both packed, handled above *)
            assert false);
          words.(dst) <- !w
        end
      end
      else begin
        let vd = vals.(dst) in
        let wd = widths.(dst) in
        let m = maskw wd in
        match o with
        | Expr.Add ->
          let va = vals.(a) and vb = vals.(b) in
          for l = 0 to act - 1 do
            Array.unsafe_set vd l (((Array.unsafe_get va l) + (Array.unsafe_get vb l)) land m)
          done
        | Expr.Sub ->
          let va = vals.(a) and vb = vals.(b) in
          for l = 0 to act - 1 do
            Array.unsafe_set vd l (((Array.unsafe_get va l) - (Array.unsafe_get vb l)) land m)
          done
        | Expr.Mul ->
          let va = vals.(a) and vb = vals.(b) in
          for l = 0 to act - 1 do
            Array.unsafe_set vd l ((Array.unsafe_get va l) * (Array.unsafe_get vb l) land m)
          done
        | Expr.And ->
          let va = vals.(a) and vb = vals.(b) in
          for l = 0 to act - 1 do
            Array.unsafe_set vd l ((Array.unsafe_get va l) land (Array.unsafe_get vb l))
          done
        | Expr.Or ->
          let va = vals.(a) and vb = vals.(b) in
          for l = 0 to act - 1 do
            Array.unsafe_set vd l ((Array.unsafe_get va l) lor (Array.unsafe_get vb l))
          done
        | Expr.Xor ->
          let va = vals.(a) and vb = vals.(b) in
          for l = 0 to act - 1 do
            Array.unsafe_set vd l ((Array.unsafe_get va l) lxor (Array.unsafe_get vb l))
          done
        | Expr.Shl ->
          let va = vals.(a) in
          for l = 0 to act - 1 do
            let n = geti b l in
            Array.unsafe_set vd l ((if n >= wd then 0 else (Array.unsafe_get va l) lsl n land m))
          done
        | Expr.Shr ->
          let va = vals.(a) in
          for l = 0 to act - 1 do
            let n = geti b l in
            Array.unsafe_set vd l ((if n >= wd then 0 else (Array.unsafe_get va l) lsr n))
          done
        | Expr.Sra ->
          let va = vals.(a) in
          for l = 0 to act - 1 do
            let n = min (geti b l) (wd - 1) in
            Array.unsafe_set vd l (signedw wd (Array.unsafe_get va l) asr n land m)
          done
        | Expr.Eq | Expr.Ne | Expr.Ltu | Expr.Lts ->
          (* comparisons always produce a width-1 slot *)
          assert false
      end
    | O_mux (c, a, b) ->
      let wc = words.(c) in
      if isb.(dst) then
        words.(dst) <- (wc land words.(a)) lor (lnot wc land words.(b) land amask)
      else begin
        let va = vals.(a) and vb = vals.(b) and vd = vals.(dst) in
        for l = 0 to act - 1 do
          Array.unsafe_set vd l ((if (wc lsr l) land 1 <> 0 then (Array.unsafe_get va l) else (Array.unsafe_get vb l)))
        done
      end
    | O_concat (a, b) ->
      (* result width >= 2: always a wide slot *)
      let vd = vals.(dst) in
      let wb = widths.(b) in
      for l = 0 to act - 1 do
        Array.unsafe_set vd l ((geti a l lsl wb) lor geti b l)
      done
    | O_slice (a, _hi, lo) ->
      if isb.(dst) then begin
        if isb.(a) then words.(dst) <- words.(a)
        else begin
          let va = vals.(a) in
          let w = ref 0 in
          for l = 0 to act - 1 do
            w := !w lor ((((Array.unsafe_get va l) lsr lo) land 1) lsl l)
          done;
          words.(dst) <- !w
        end
      end
      else begin
        let va = vals.(a) and vd = vals.(dst) in
        let m = maskw widths.(dst) in
        for l = 0 to act - 1 do
          Array.unsafe_set vd l (((Array.unsafe_get va l) lsr lo) land m)
        done
      end
    | O_zext (a, _) ->
      (* strictly widening (same-width zext never reaches the tape) *)
      let vd = vals.(dst) in
      for l = 0 to act - 1 do
        Array.unsafe_set vd l (geti a l)
      done
    | O_sext (a, w) ->
      let vd = vals.(dst) in
      let wa = widths.(a) in
      let m = maskw w in
      for l = 0 to act - 1 do
        Array.unsafe_set vd l (signedw wa (geti a l) land m)
      done
    | O_file_read (f, a, _) ->
      let rows = ln.l_files.(f) in
      if Array.length rows = 0 then
        rerr "unbound register file %s" p.file_names.(f);
      if isb.(dst) then begin
        let w = ref 0 in
        for l = 0 to act - 1 do
          let row = Array.unsafe_get rows l in
          if Array.unsafe_get row (geti a l land (Array.length row - 1)) land 1 <> 0 then
            w := !w lor (1 lsl l)
        done;
        words.(dst) <- !w
      end
      else begin
        let vd = vals.(dst) in
        for l = 0 to act - 1 do
          let row = Array.unsafe_get rows l in
          Array.unsafe_set vd l (row.((geti a l) land (Array.length row - 1)))
        done
      end
  done

let pp ppf p =
  let slot ppf s =
    match p.names.(s) with
    | Some n -> Format.fprintf ppf "s%d{%s}" s n
    | None -> Format.fprintf ppf "s%d" s
  in
  let unop = function
    | Expr.Not -> "not"
    | Expr.Neg -> "neg"
    | Expr.Reduce_or -> "reduce_or"
    | Expr.Reduce_and -> "reduce_and"
  in
  let binop = function
    | Expr.Add -> "add"
    | Expr.Sub -> "sub"
    | Expr.Mul -> "mul"
    | Expr.And -> "and"
    | Expr.Or -> "or"
    | Expr.Xor -> "xor"
    | Expr.Eq -> "eq"
    | Expr.Ne -> "ne"
    | Expr.Ltu -> "ltu"
    | Expr.Lts -> "lts"
    | Expr.Shl -> "shl"
    | Expr.Shr -> "shr"
    | Expr.Sra -> "sra"
  in
  Format.fprintf ppf "plan: %d slots, %d consts, %d instrs@." p.p_n_slots
    (Array.length p.consts) (Array.length p.tape);
  Array.iter
    (fun (s, v) -> Format.fprintf ppf "%a = const %a@." slot s Bitvec.pp v)
    p.consts;
  Array.iter
    (fun { dst; op } ->
      Format.fprintf ppf "%a:%d = " slot dst p.p_widths.(dst);
      (match op with
      | O_unop (o, a) -> Format.fprintf ppf "%s %a" (unop o) slot a
      | O_binop (o, a, b) ->
        Format.fprintf ppf "%s %a %a" (binop o) slot a slot b
      | O_mux (c, a, b) ->
        Format.fprintf ppf "mux %a %a %a" slot c slot a slot b
      | O_concat (a, b) -> Format.fprintf ppf "concat %a %a" slot a slot b
      | O_slice (a, hi, lo) ->
        Format.fprintf ppf "slice %a [%d:%d]" slot a hi lo
      | O_zext (a, w) -> Format.fprintf ppf "zext %a %d" slot a w
      | O_sext (a, w) -> Format.fprintf ppf "sext %a %d" slot a w
      | O_file_read (f, a, w) ->
        Format.fprintf ppf "file_read %s[%a] %d" p.file_names.(f) slot a w);
      Format.fprintf ppf "@.")
    p.tape

let stats p =
  let tbl = Hashtbl.create 16 in
  let bump k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  Array.iter
    (fun { op; _ } ->
      bump
        (match op with
        | O_unop (o, _) -> (
          match o with
          | Expr.Not -> "unop_not"
          | Expr.Neg -> "unop_neg"
          | Expr.Reduce_or -> "unop_reduce_or"
          | Expr.Reduce_and -> "unop_reduce_and")
        | O_binop (o, _, _) -> (
          match o with
          | Expr.Add -> "binop_add"
          | Expr.Sub -> "binop_sub"
          | Expr.Mul -> "binop_mul"
          | Expr.And -> "binop_and"
          | Expr.Or -> "binop_or"
          | Expr.Xor -> "binop_xor"
          | Expr.Eq -> "binop_eq"
          | Expr.Ne -> "binop_ne"
          | Expr.Ltu -> "binop_ltu"
          | Expr.Lts -> "binop_lts"
          | Expr.Shl -> "binop_shl"
          | Expr.Shr -> "binop_shr"
          | Expr.Sra -> "binop_sra")
        | O_mux _ -> "mux"
        | O_concat _ -> "concat"
        | O_slice _ -> "slice"
        | O_zext _ -> "zext"
        | O_sext _ -> "sext"
        | O_file_read _ -> "file_read"))
    p.tape;
  let ops =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  ("slots", p.p_n_slots)
  :: ("consts", Array.length p.consts)
  :: ("instrs", Array.length p.tape)
  :: ops
