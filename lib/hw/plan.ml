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
  mutable roots_rev : int list;  (* slots returned by [root] *)
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
  file_widths : int array;
  names : string option array;  (* slot -> name view *)
  p_roots : int array;
      (* every slot handed out by [root]: liveness roots for
         [optimize], alongside the named inputs and defines *)
  p_ctrl : int;
      (* control-prefix length: [tape.(0 .. p_ctrl - 1)] is the
         always-evaluated segment.  Unsegmented plans have
         [p_ctrl = Array.length tape]. *)
  p_groups : (int * int) array;
      (* on-demand segments: group [g] is [tape.(lo .. hi - 1)],
         evaluated by [run_group] only on the cycles that consume its
         slots.  [[||]] for unsegmented plans. *)
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
      roots_rev = [];
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
  let s = compile b e in
  b.roots_rev <- s :: b.roots_rev;
  s

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
  let file_widths = Array.make b.n_files 0 in
  Hashtbl.iter
    (fun n (i, w) ->
      file_names.(i) <- n;
      file_widths.(i) <- w)
    b.b_files;
  let names = Array.make (max b.n_slots 1) None in
  Hashtbl.iter (fun n (s, _) -> names.(s) <- Some n) b.b_inputs;
  Hashtbl.iter (fun n (s, _) -> names.(s) <- Some n) b.b_defines;
  let tape = Array.of_list (List.rev b.tape_rev) in
  {
    p_n_slots = b.n_slots;
    p_widths = Array.sub b.widths 0 (max b.n_slots 1);
    consts = Array.of_list (List.rev b.consts_rev);
    tape;
    p_inputs = b.b_inputs;
    p_defines = b.b_defines;
    p_files = b.b_files;
    file_names;
    file_widths;
    names;
    p_roots = Array.of_list (List.rev b.roots_rev);
    p_ctrl = Array.length tape;
    p_groups = [||];
  }

let n_slots p = p.p_n_slots
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

let apply_unop op a =
  match op with
  | Expr.Not -> Bitvec.lognot a
  | Expr.Neg -> Bitvec.neg a
  | Expr.Reduce_or -> Bitvec.of_bool (not (Bitvec.is_zero a))
  | Expr.Reduce_and ->
    Bitvec.of_bool (Bitvec.equal a (Bitvec.ones (Bitvec.width a)))

let apply_binop op a b =
  match op with
  | Expr.Add -> Bitvec.add a b
  | Expr.Sub -> Bitvec.sub a b
  | Expr.Mul -> Bitvec.mul a b
  | Expr.And -> Bitvec.logand a b
  | Expr.Or -> Bitvec.logor a b
  | Expr.Xor -> Bitvec.logxor a b
  | Expr.Eq -> Bitvec.eq a b
  | Expr.Ne -> Bitvec.lognot (Bitvec.eq a b)
  | Expr.Ltu -> Bitvec.lt_unsigned a b
  | Expr.Lts -> Bitvec.lt_signed a b
  | Expr.Shl -> Bitvec.shift_left a (Bitvec.to_int b)
  | Expr.Shr -> Bitvec.shift_right_logical a (Bitvec.to_int b)
  | Expr.Sra -> Bitvec.shift_right_arith a (Bitvec.to_int b)

(* Raw-int mirrors of the Bitvec primitives, shared by the scalar and
   lane interpreters.  These must agree with bitvec.ml bit for bit,
   including the width-62 special cases (all-ones mask [max_int]; a
   62-bit value reads as non-negative). *)
let maskw w = if w = Bitvec.max_width then max_int else (1 lsl w) - 1

let signedw w v =
  if w = Bitvec.max_width then v
  else if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w)
  else v

(* Every operand is already masked to its slot's width, so only ops
   that can carry, borrow or smear ones upward mask their result. *)
let run_range inst lo hi =
  let s = inst.slots in
  let p = inst.plan in
  let widths = p.p_widths in
  let tape = p.tape in
  for i = lo to hi - 1 do
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

let run inst =
  let len = Array.length inst.plan.tape in
  Obs.Counters.bump Obs.Counters.Plan_runs;
  Obs.Counters.add Obs.Counters.Plan_ops len;
  run_range inst 0 len

let run_control inst =
  let ctrl = inst.plan.p_ctrl in
  Obs.Counters.bump Obs.Counters.Plan_runs;
  Obs.Counters.add Obs.Counters.Plan_ops ctrl;
  run_range inst 0 ctrl

let run_group inst g =
  let lo, hi = inst.plan.p_groups.(g) in
  Obs.Counters.add Obs.Counters.Plan_ops (hi - lo);
  run_range inst lo hi

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

   [run_lanes] deliberately counts nothing: callers account the
   equivalent scalar work through an [Obs.Counters.ledger] so the
   WORK totals stay bit-identical to the scalar batched path. *)
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
let lanes_capacity ln = ln.l_cap
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

let run_lanes_range ln lo hi =
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
  for i = lo to hi - 1 do
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

let run_lanes ln = run_lanes_range ln 0 (Array.length ln.l_plan.tape)
let run_lanes_control ln = run_lanes_range ln 0 ln.l_plan.p_ctrl

let run_lanes_group ln g =
  let lo, hi = ln.l_plan.p_groups.(g) in
  run_lanes_range ln lo hi

let iter_op_operands op k =
  match op with
  | O_unop (_, a) | O_slice (a, _, _) | O_zext (a, _) | O_sext (a, _)
  | O_file_read (_, a, _) ->
    k a
  | O_binop (_, a, b) | O_concat (a, b) ->
    k a;
    k b
  | O_mux (c, a, b) ->
    k c;
    k a;
    k b

(* ------------------------------------------------------------------ *)
(* Tape optimization: fold, rewrite, kill, compact                     *)
(* ------------------------------------------------------------------ *)

let optimize_flag = Atomic.make true
let optimize_default () = Atomic.get optimize_flag
let set_optimize_default b = Atomic.set optimize_flag b

let bv_is_zero v = Bitvec.is_zero v
let bv_is_ones v = Bitvec.equal v (Bitvec.ones (Bitvec.width v))

(* Outcome of rewriting one step whose operands are already
   representative slots: a compile-time constant, an alias to an
   existing slot, or the (operand-resolved) step itself. *)
type rewrite = R_const of Bitvec.t | R_alias of int | R_keep of op

(* One fold pass: constant folding and propagation, algebraic
   identities, dead-code elimination by backward liveness, and tape
   compaction.  [optimize_remap] below runs it and does the counting. *)
let fold_remap ?keep_define p =
  let n = p.p_n_slots in
  let widths = p.p_widths in
  (* [repr.(s)]: the slot [s] evaluates to after rewriting.  Operands
     always resolve through [repr] before a step is examined, and a
     step only ever aliases to one of its resolved operands (or to a
     slot already registered as holding the same constant), so every
     representative is final by the time it is read. *)
  let repr = Array.init (max n 1) Fun.id in
  let cval : Bitvec.t option array = Array.make (max n 1) None in
  Array.iter (fun (s, v) -> cval.(s) <- Some v) p.consts;
  (* Constant slots by value: original consts first, then folded step
     destinations promoted to constants, deduplicated as they appear. *)
  let const_slot : (Bitvec.t, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (s, v) ->
      if not (Hashtbl.mem const_slot v) then Hashtbl.add const_slot v s)
    p.consts;
  let new_consts_rev = ref [] in
  let kept_rev = ref [] in
  let cv s = cval.(s) in
  let rewrite dst op =
    let w = widths.(dst) in
    match op with
    | O_unop (o, a) -> (
      match cv a with
      | Some va -> R_const (apply_unop o va)
      | None -> (
        match o with
        | (Expr.Reduce_or | Expr.Reduce_and) when widths.(a) = 1 -> R_alias a
        | _ -> R_keep op))
    | O_binop (o, a, b) -> (
      match (cv a, cv b) with
      | Some va, Some vb -> R_const (apply_binop o va vb)
      | ca, cb ->
        if a = b then
          (* hash-consing gives structurally equal subtrees one slot,
             so [x op x] is detectable as equal operand slots *)
          match o with
          | Expr.And | Expr.Or -> R_alias a
          | Expr.Xor | Expr.Sub -> R_const (Bitvec.zero w)
          | Expr.Eq -> R_const (Bitvec.of_bool true)
          | Expr.Ne | Expr.Ltu | Expr.Lts -> R_const (Bitvec.of_bool false)
          | Expr.Add | Expr.Mul | Expr.Shl | Expr.Shr | Expr.Sra -> R_keep op
        else (
          match (o, ca, cb) with
          | Expr.And, Some z, _ when bv_is_zero z -> R_const (Bitvec.zero w)
          | Expr.And, _, Some z when bv_is_zero z -> R_const (Bitvec.zero w)
          | Expr.And, Some v, _ when bv_is_ones v -> R_alias b
          | Expr.And, _, Some v when bv_is_ones v -> R_alias a
          | Expr.Or, Some v, _ when bv_is_ones v -> R_const (Bitvec.ones w)
          | Expr.Or, _, Some v when bv_is_ones v -> R_const (Bitvec.ones w)
          | Expr.Or, Some z, _ when bv_is_zero z -> R_alias b
          | Expr.Or, _, Some z when bv_is_zero z -> R_alias a
          | Expr.Xor, Some z, _ when bv_is_zero z -> R_alias b
          | Expr.Xor, _, Some z when bv_is_zero z -> R_alias a
          | Expr.Add, Some z, _ when bv_is_zero z -> R_alias b
          | Expr.Add, _, Some z when bv_is_zero z -> R_alias a
          | Expr.Sub, _, Some z when bv_is_zero z -> R_alias a
          | Expr.Mul, Some z, _ when bv_is_zero z -> R_const (Bitvec.zero w)
          | Expr.Mul, _, Some z when bv_is_zero z -> R_const (Bitvec.zero w)
          | (Expr.Shl | Expr.Shr | Expr.Sra), _, Some z when bv_is_zero z ->
            R_alias a
          | _ -> R_keep op))
    | O_mux (c, a, b) -> (
      match cv c with
      | Some vc -> R_alias (if Bitvec.to_bool vc then a else b)
      | None ->
        if a = b then R_alias a
        else (
          match (cv a, cv b) with
          | Some va, Some vb when w = 1 && bv_is_ones va && bv_is_zero vb ->
            (* mux(c, 1, 0) = c; the select is width-1 by construction *)
            R_alias c
          | _ -> R_keep op))
    | O_concat (a, b) -> (
      match (cv a, cv b) with
      | Some va, Some vb -> R_const (Bitvec.concat va vb)
      | _ -> R_keep op)
    | O_slice (a, hi, lo) -> (
      match cv a with
      | Some va -> R_const (Bitvec.slice va ~hi ~lo)
      | None -> if lo = 0 && hi = widths.(a) - 1 then R_alias a else R_keep op)
    | O_zext (a, wz) -> (
      match cv a with
      | Some va -> R_const (Bitvec.zero_extend va wz)
      | None -> if wz = widths.(a) then R_alias a else R_keep op)
    | O_sext (a, wz) -> (
      match cv a with
      | Some va -> R_const (Bitvec.sign_extend va wz)
      | None -> if wz = widths.(a) then R_alias a else R_keep op)
    (* Never folded: the read depends on the reader bound at run time.
       A dead read is still killable below — readers are pure. *)
    | O_file_read _ -> R_keep op
  in
  Array.iter
    (fun { dst; op } ->
      let op =
        match op with
        | O_unop (o, a) -> O_unop (o, repr.(a))
        | O_binop (o, a, b) -> O_binop (o, repr.(a), repr.(b))
        | O_mux (c, a, b) -> O_mux (repr.(c), repr.(a), repr.(b))
        | O_concat (a, b) -> O_concat (repr.(a), repr.(b))
        | O_slice (a, hi, lo) -> O_slice (repr.(a), hi, lo)
        | O_zext (a, w) -> O_zext (repr.(a), w)
        | O_sext (a, w) -> O_sext (repr.(a), w)
        | O_file_read (f, a, w) -> O_file_read (f, repr.(a), w)
      in
      match rewrite dst op with
      | R_const v -> (
        match Hashtbl.find_opt const_slot v with
        | Some s0 -> repr.(dst) <- s0
        | None ->
          Hashtbl.add const_slot v dst;
          cval.(dst) <- Some v;
          new_consts_rev := (dst, v) :: !new_consts_rev)
      | R_alias s -> repr.(dst) <- s
      | R_keep op -> kept_rev := { dst; op } :: !kept_rev)
    p.tape;
  (* Backward liveness from the observed roots: named inputs (loaded
     by callers), named defines (readable by name), and every slot
     handed out by [root] (commit writes, snapshot cells, mispredict
     probes — anything a caller captured). *)
  let kept = Array.of_list (List.rev !kept_rev) in
  let live = Array.make (max n 1) false in
  let mark s = live.(s) <- true in
  Hashtbl.iter (fun _ (s, _) -> mark s) p.p_inputs;
  (* [keep_define] narrows the define roots: a caller that knows which
     names it will ever read back (the verification hot path reads
     only the hazard signals — everything else it consumes came from
     [root]) lets the rest of the signal forest die unless it feeds a
     surviving root.  Dropped defines disappear from the name tables,
     so a stale [define_slot]/[read_name] misses loudly instead of
     returning a dead slot. *)
  Hashtbl.iter
    (fun nm (s, _) ->
      match keep_define with
      | None -> mark repr.(s)
      | Some keep -> if keep nm then mark repr.(s))
    p.p_defines;
  Array.iter (fun s -> mark repr.(s)) p.p_roots;
  for i = Array.length kept - 1 downto 0 do
    let { dst; op } = kept.(i) in
    if live.(dst) then iter_op_operands op mark
  done;
  (* Compact: renumber live slots in allocation order (operands keep
     preceding their uses in tape order — aliases only ever point at
     resolved operands or constants, and constants are preloaded). *)
  let new_id = Array.make (max n 1) (-1) in
  let n' = ref 0 in
  for s = 0 to n - 1 do
    if live.(s) then begin
      new_id.(s) <- !n';
      incr n'
    end
  done;
  let n' = !n' in
  let widths' = Array.make (max n' 1) 0 in
  for s = 0 to n - 1 do
    if live.(s) then widths'.(new_id.(s)) <- widths.(s)
  done;
  let tape' =
    Array.of_list
      (List.filter_map
         (fun { dst; op } ->
           if not live.(dst) then None
           else
             let f s = new_id.(s) in
             Some
               {
                 dst = f dst;
                 op =
                   (match op with
                   | O_unop (o, a) -> O_unop (o, f a)
                   | O_binop (o, a, b) -> O_binop (o, f a, f b)
                   | O_mux (c, a, b) -> O_mux (f c, f a, f b)
                   | O_concat (a, b) -> O_concat (f a, f b)
                   | O_slice (a, hi, lo) -> O_slice (f a, hi, lo)
                   | O_zext (a, w) -> O_zext (f a, w)
                   | O_sext (a, w) -> O_sext (f a, w)
                   | O_file_read (fi, a, w) -> O_file_read (fi, f a, w));
               })
         (Array.to_list kept))
  in
  let consts' =
    Array.of_list
      (List.filter_map
         (fun (s, v) -> if live.(s) then Some (new_id.(s), v) else None)
         (Array.to_list p.consts @ List.rev !new_consts_rev))
  in
  let inputs' = Hashtbl.create (max 16 (Hashtbl.length p.p_inputs)) in
  Hashtbl.iter
    (fun nm (s, w) -> Hashtbl.replace inputs' nm (new_id.(s), w))
    p.p_inputs;
  let defines' = Hashtbl.create (max 16 (Hashtbl.length p.p_defines)) in
  Hashtbl.iter
    (fun nm (s, w) ->
      let s' = new_id.(repr.(s)) in
      if s' >= 0 then Hashtbl.replace defines' nm (s', w))
    p.p_defines;
  let names' = Array.make (max n' 1) None in
  Hashtbl.iter (fun nm (s, _) -> names'.(s) <- Some nm) inputs';
  Hashtbl.iter (fun nm (s, _) -> names'.(s) <- Some nm) defines';
  let remap = Array.init (max n 1) (fun s -> new_id.(repr.(s))) in
  ( {
      p_n_slots = n';
      p_widths = widths';
      consts = consts';
      tape = tape';
      p_inputs = inputs';
      p_defines = defines';
      p_files = p.p_files;
      file_names = p.file_names;
      file_widths = p.file_widths;
      names = names';
      p_roots = Array.map (fun s -> remap.(s)) p.p_roots;
      p_ctrl = Array.length tape';
      p_groups = [||];
    },
    remap )

let optimize_remap ?(count = true) ?keep_define p =
  let p', remap = fold_remap ?keep_define p in
  if count then begin
    Obs.Counters.add Obs.Counters.Plan_ops_folded
      (Array.length p.tape - Array.length p'.tape);
    Obs.Counters.add Obs.Counters.Slots_killed (p.p_n_slots - p'.p_n_slots)
  end;
  (p', remap)

let optimize ?count ?keep_define p = fst (optimize_remap ?count ?keep_define p)

(* ------------------------------------------------------------------ *)
(* Tape segmentation: control prefix + on-demand groups                *)
(* ------------------------------------------------------------------ *)

let n_ctrl_instrs p = p.p_ctrl
let n_groups p = Array.length p.p_groups

let group_instrs p g =
  let lo, hi = p.p_groups.(g) in
  hi - lo

let is_segmented p = Array.length p.p_groups > 0

let segment ?(ctrl_roots = [||]) p ~groups =
  let groups = Array.of_list groups in
  let ng = Array.length groups in
  if ng = 0 then p
  else if ng > 62 then
    invalid_arg (Printf.sprintf "Plan.segment: %d groups (max 62)" ng)
  else begin
    let len = Array.length p.tape in
    (* slot -> tape index of its defining step (-1: const or input) *)
    let step_of = Array.make (max p.p_n_slots 1) (-1) in
    Array.iteri (fun i { dst; _ } -> step_of.(dst) <- i) p.tape;
    (* [need.(i)]: bitmask of the groups whose root slots transitively
       read step [i]. *)
    let need = Array.make (max len 1) 0 in
    Array.iteri
      (fun g roots ->
        let bit = 1 lsl g in
        let stack = ref [] in
        let push s =
          let i = step_of.(s) in
          if i >= 0 && need.(i) land bit = 0 then begin
            need.(i) <- need.(i) lor bit;
            stack := i :: !stack
          end
        in
        Array.iter push roots;
        let rec drain () =
          match !stack with
          | [] -> ()
          | i :: tl ->
            stack := tl;
            iter_op_operands p.tape.(i).op push;
            drain ()
        in
        drain ())
      groups;
    (* Control membership: explicit control roots (slots the engine
       reads unconditionally every cycle), every named define (reachable
       through [read_name] / [define_slot] at any time), every step no
       group claims, and every step two or more groups share.  Control
       runs before any group, so membership propagates to operands — the
       single descending sweep suffices because the tape is
       topologically ordered (operands always sit at lower indices). *)
    let ctrl = Array.make (max len 1) false in
    let mark_ctrl s =
      let i = step_of.(s) in
      if i >= 0 then ctrl.(i) <- true
    in
    Array.iter mark_ctrl ctrl_roots;
    Hashtbl.iter (fun _ (s, _) -> mark_ctrl s) p.p_defines;
    for i = 0 to len - 1 do
      let m = need.(i) in
      if m = 0 || m land (m - 1) <> 0 then ctrl.(i) <- true
    done;
    for i = len - 1 downto 0 do
      if ctrl.(i) then iter_op_operands p.tape.(i).op mark_ctrl
    done;
    (* Stable reorder: control prefix, then each group's steps in
       original (hence still topological) order.  Slots are NOT
       renumbered — only the tape order changes. *)
    let bucket i =
      if ctrl.(i) then 0
      else begin
        (* exactly one bit set: its group, shifted past control *)
        let m = need.(i) in
        let rec log2 m acc = if m = 1 then acc else log2 (m lsr 1) (acc + 1) in
        1 + log2 m 0
      end
    in
    let order = Array.init len Fun.id in
    (* counting sort by bucket keeps the within-bucket order stable *)
    let counts = Array.make (ng + 1) 0 in
    Array.iter (fun i -> counts.(bucket i) <- counts.(bucket i) + 1) order;
    let starts = Array.make (ng + 1) 0 in
    for b = 1 to ng do
      starts.(b) <- starts.(b - 1) + counts.(b - 1)
    done;
    let bounds = Array.init ng (fun g -> (starts.(g + 1), starts.(g + 1) + counts.(g + 1))) in
    let tape' = Array.make len { dst = 0; op = O_zext (0, 1) } in
    let cursor = Array.copy starts in
    Array.iter
      (fun i ->
        let b = bucket i in
        tape'.(cursor.(b)) <- p.tape.(i);
        cursor.(b) <- cursor.(b) + 1)
      order;
    { p with tape = tape'; p_ctrl = counts.(0); p_groups = bounds }
  end

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
