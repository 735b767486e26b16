(* Rule compilation: specialise transition rules into closure chains
   over interned ground terms.

   A [Window.Session] compiles each initiatedAt/terminatedAt rule of the
   event description once, against its stream and knowledge base, into
   a chain of closures over a reusable slot frame: event candidates come
   from pre-interned per-indicator arrays, pattern matching is integer
   comparison on intern ids, numeric guards read an unboxed float per
   slot, and holdsAt probes hit the int-keyed engine cache. Per-window
   evaluation then executes int comparisons and array indexing where the
   interpreter re-unified substitution maps and re-traversed the AST.

   The program outlives one stream value: each event table sits in a
   cell that its closures read on entry, and [refresh] swaps in the
   table of a grown stream, interning only the events past the prefix
   the old table already covers. Rules, knowledge tables, the intern
   table and the probe memos survive a refresh.

   The compiler is deliberately partial: any rule shape outside the
   analysed fragment (unbound probe arguments, [=] unification,
   non-ground heads, nested event patterns, time joins) yields
   [Interpreted], and the engine falls back to the interpreter for that
   rule only — feeding the same accumulators, so results are
   bit-identical. The search tree a compiled chain explores (candidate
   order, literal order, depth-first backtracking) mirrors
   [Engine.body_solutions] exactly.

   A program's frames and state cells are mutable: a program belongs to
   one domain (each session compiles its own). *)

type frame = {
  ids : int array;  (* slot -> intern id of the bound term *)
  terms : Term.t array;  (* slot -> the bound term itself *)
  nums : float array;  (* slot -> numeric value, nan when non-numeric *)
  tvals : int array;  (* slot -> time-point value (time slots only) *)
}

(* Per-rule mutable evaluation state, set by [run_rule] before the
   chain fires: window bounds, cache probe and emission callbacks. *)
type rstate = {
  mutable r_from : int;
  mutable r_until : int;
  mutable r_probe : int -> int -> bool;  (* fvp id -> time -> holds *)
  mutable r_miss : unit -> unit;  (* unresolvable probe: count a cache miss *)
  mutable r_emit : int -> int -> unit;  (* ground fvp id, transition time *)
}

let no_probe _ _ = false
let no_miss () = ()
let no_emit _ _ = ()

type compiled_rule = {
  cr_state : rstate;
  cr_chain : unit -> unit;
  cr_frame : frame;
  cr_bvars : (string * bool) array;  (* bound vars in name order; true = time slot *)
  cr_bslots : int array;  (* slot per binding; [lnot slot] for time slots *)
}
type rule_code = Compiled of compiled_rule | Interpreted

(* --- pre-interned candidate tables --- *)

type candidates = {
  c_src : Stream.event array;  (* events: the stream array the rows mirror; facts: [||] *)
  c_times : int array;  (* events: sorted occurrence times; facts: [||] *)
  c_ids : int array array;  (* per candidate: intern id of each argument *)
  c_terms : Term.t array array;
  c_nums : float array array;
}

type program = {
  p_intern : Intern.t;
  p_code : (string * int * int, rule_code) Hashtbl.t;  (* indicator + rule index *)
  p_events : (string * int, candidates ref) Hashtbl.t;  (* cells the closures read *)
  p_compiled : int;  (* rules compiled to closures *)
  p_fallback : int;  (* transition rules left to the interpreter *)
}

let intern p = p.p_intern
let rule_code p ~ind ~index = Hashtbl.find_opt p.p_code (fst ind, snd ind, index)
let stats p = (p.p_compiled, p.p_fallback)

(* Numeric value of a ground term, evaluated exactly like
   [Engine.eval_num] on a ground input (so a compiled guard agrees with
   the interpreter even on arithmetic-compound arguments). *)
let rec static_num t =
  match t with
  | Term.Int n -> float_of_int n
  | Term.Real r -> r
  | Term.Compound (("+" | "-" | "*" | "/") as op, [ a; b ]) -> (
    let x = static_num a and y = static_num b in
    match op with
    | "+" -> x +. y
    | "-" -> x -. y
    | "*" -> x *. y
    | _ -> if y = 0. then Float.nan else x /. y)
  | _ -> Float.nan

let intern_args intern terms =
  let n = List.length terms in
  let ids = Array.make n (-1) and tarr = Array.make n (Term.Atom "") in
  let nums = Array.make n Float.nan in
  List.iteri
    (fun k a ->
      ids.(k) <- Intern.id_of_term intern a;
      tarr.(k) <- a;
      nums.(k) <- static_num a)
    terms;
  (ids, tarr, nums)

let no_candidates = { c_src = [||]; c_times = [||]; c_ids = [||]; c_terms = [||]; c_nums = [||] }

(* The table of an indicator's event array. Rows of [prev] are kept for
   the prefix of [events] that is physically [prev]'s source — a grown
   stream shares the events it already had, and the merge keeps them in
   order — so only the events after that prefix are interned. *)
let events_table ?(prev = no_candidates) intern events =
  let n = Array.length events in
  let keep = ref 0 and shared = min n (Array.length prev.c_src) in
  while !keep < shared && events.(!keep) == prev.c_src.(!keep) do
    incr keep
  done;
  let extend rows fill =
    let a = Array.make n fill in
    Array.blit rows 0 a 0 !keep;
    a
  in
  let c_times = extend prev.c_times 0 and c_ids = extend prev.c_ids [||] in
  let c_terms = extend prev.c_terms [||] and c_nums = extend prev.c_nums [||] in
  for j = !keep to n - 1 do
    let e = events.(j) in
    c_times.(j) <- e.time;
    let ids, tarr, nums = intern_args intern (Term.args e.term) in
    c_ids.(j) <- ids;
    c_terms.(j) <- tarr;
    c_nums.(j) <- nums
  done;
  { c_src = events; c_times; c_ids; c_terms; c_nums }

(* Candidate tables are interned once per program: every literal on the
   same indicator — across all rules — shares one table, so compiling 70
   rules scans the stream once per indicator, not once per literal. *)
type tables = {
  t_events : (string * int, candidates ref) Hashtbl.t;
  t_facts : (string * int, candidates) Hashtbl.t;
}

let facts_table intern knowledge ind =
  let facts = Array.of_list (Knowledge.candidates knowledge ind) in
  let n = Array.length facts in
  let c_ids = Array.make n [||] and c_terms = Array.make n [||] in
  let c_nums = Array.make n [||] in
  Array.iteri
    (fun j fact ->
      let ids, tarr, nums = intern_args intern (Term.args fact) in
      c_ids.(j) <- ids;
      c_terms.(j) <- tarr;
      c_nums.(j) <- nums)
    facts;
  { no_candidates with c_ids; c_terms; c_nums }

let memo tbl ind build =
  match Hashtbl.find_opt tbl ind with
  | Some t -> t
  | None ->
    let t = build ind in
    Hashtbl.replace tbl ind t;
    t

(* First index with time >= t. *)
let lower_bound times t =
  let lo = ref 0 and hi = ref (Array.length times) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if times.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- rule compilation --- *)

exception Fallback

type arg_spec =
  | A_bind of int
  | A_check_const of int * Term.t * float
  | A_check_slot of int

(* Ground-vs-ground matching follows [Unify.unify]'s exact semantics:
   intern id equality covers the structural case, numeric literals
   additionally unify across the Int/Real representations (thresholds
   are reals while stream attributes may be integers), and ground
   compounds — whose subterms may hide the same cross-representation
   matches — defer to the unifier itself (rare: domain event arguments
   are flat). The numeric comparison is written inline so the floats
   never cross a function boundary (a boxed float per candidate visit
   is exactly the allocation this layer exists to remove); both sides
   are [static_num] of an Int/Real literal, hence never nan, so [=]
   agrees with [Float.equal] here. *)
(* Toplevel recursion with explicit arguments (a local [let rec] would
   allocate its closure on every call — once per candidate visit and
   per fact probe, the hottest call site in the engine). *)
let rec apply_from frame specs cand_ids cand_terms cand_nums k =
  k >= Array.length specs
  ||
  match specs.(k) with
  | A_check_const (id, pt, pn) ->
    (cand_ids.(k) = id
    ||
    match pt with
    | Term.Int _ | Term.Real _ -> (
      match cand_terms.(k) with
      | Term.Int _ | Term.Real _ -> pn = cand_nums.(k)
      | _ -> false)
    | Term.Compound _ -> (
      match cand_terms.(k) with
      | Term.Compound _ as ct -> Option.is_some (Unify.unify pt ct)
      | _ -> false)
    | _ -> false)
    && apply_from frame specs cand_ids cand_terms cand_nums (k + 1)
  | A_check_slot s ->
    (frame.ids.(s) = cand_ids.(k)
    ||
    match frame.terms.(s) with
    | Term.Int _ | Term.Real _ -> (
      match cand_terms.(k) with
      | Term.Int _ | Term.Real _ -> frame.nums.(s) = cand_nums.(k)
      | _ -> false)
    | Term.Compound _ as pt -> (
      match cand_terms.(k) with
      | Term.Compound _ as ct -> Option.is_some (Unify.unify pt ct)
      | _ -> false)
    | _ -> false)
    && apply_from frame specs cand_ids cand_terms cand_nums (k + 1)
  | A_bind s ->
    frame.ids.(s) <- cand_ids.(k);
    frame.terms.(s) <- cand_terms.(k);
    frame.nums.(s) <- cand_nums.(k);
    apply_from frame specs cand_ids cand_terms cand_nums (k + 1)

let apply_specs frame specs cand_ids cand_terms cand_nums =
  apply_from frame specs cand_ids cand_terms cand_nums 0

type time_spec = T_bind of int | T_slot of int | T_const of int

(* Numeric operand shape: constants and plain slot reads get dedicated
   comparison closures whose floats live entirely in one function body
   (no boxed closure returns on the hot path); arithmetic compounds use
   the generic closure form. *)
type numexp = N_const of float | N_slot of int | N_fun of (unit -> float)

let num_fun frame = function
  | N_const c -> fun () -> c
  | N_slot s -> fun () -> frame.nums.(s)
  | N_fun f -> f

(* IEEE comparisons are false on nan, which is exactly the interpreter's
   behaviour on a non-evaluable operand ([eval_num] = None fails the
   literal); [\=] additionally requires both sides to evaluate. *)
let compile_test frame op na nb : unit -> bool =
  match (op, na, nb) with
  | "<", N_slot s, N_const c -> fun () -> frame.nums.(s) < c
  | "<", N_const c, N_slot s -> fun () -> c < frame.nums.(s)
  | "<", N_slot s1, N_slot s2 -> fun () -> frame.nums.(s1) < frame.nums.(s2)
  | ">", N_slot s, N_const c -> fun () -> frame.nums.(s) > c
  | ">", N_const c, N_slot s -> fun () -> c > frame.nums.(s)
  | ">", N_slot s1, N_slot s2 -> fun () -> frame.nums.(s1) > frame.nums.(s2)
  | ">=", N_slot s, N_const c -> fun () -> frame.nums.(s) >= c
  | ">=", N_const c, N_slot s -> fun () -> c >= frame.nums.(s)
  | ">=", N_slot s1, N_slot s2 -> fun () -> frame.nums.(s1) >= frame.nums.(s2)
  | "=<", N_slot s, N_const c -> fun () -> frame.nums.(s) <= c
  | "=<", N_const c, N_slot s -> fun () -> c <= frame.nums.(s)
  | "=<", N_slot s1, N_slot s2 -> fun () -> frame.nums.(s1) <= frame.nums.(s2)
  | _ -> (
    let fa = num_fun frame na and fb = num_fun frame nb in
    match op with
    | "<" -> fun () -> fa () < fb ()
    | ">" -> fun () -> fa () > fb ()
    | ">=" -> fun () -> fa () >= fb ()
    | "=<" -> fun () -> fa () <= fb ()
    | _ ->
      fun () ->
        let x = fa () and y = fb () in
        x = x && y = y && not (Float.equal x y))

let comparison_ops = [ "<"; ">"; ">="; "=<"; "\\=" ]

let compile_rule intern ~tables ~stream ~knowledge (r : Ast.rule) ~fluent ~value ~time =
  (* Slots: one per distinct variable of the rule, in first-occurrence
     order over the body then the head. *)
  let slot_of = Hashtbl.create 8 in
  let n_slots = ref 0 in
  let note_vars t =
    List.iter
      (fun v ->
        if not (Hashtbl.mem slot_of v) then begin
          Hashtbl.replace slot_of v !n_slots;
          incr n_slots
        end)
      (Term.vars t)
  in
  List.iter note_vars r.Ast.body;
  note_vars fluent;
  note_vars value;
  note_vars time;
  let n = !n_slots in
  let frame =
    {
      ids = Array.make (max n 1) (-1);
      terms = Array.make (max n 1) (Term.Atom "");
      nums = Array.make (max n 1) Float.nan;
      tvals = Array.make (max n 1) 0;
    }
  in
  let st =
    { r_from = 0; r_until = 0; r_probe = no_probe; r_miss = no_miss; r_emit = no_emit }
  in
  (* Compile-time binding environment: variable -> slot and kind. *)
  let bound : (string, [ `Term | `Time ]) Hashtbl.t = Hashtbl.create 8 in
  let slot v = Hashtbl.find slot_of v in
  let compile_args ~negated args =
    let temp = ref [] in
    let specs =
      List.map
        (fun a ->
          if Term.is_ground a then
            A_check_const (Intern.id_of_term intern a, a, static_num a)
          else
            match a with
            | Term.Var v -> (
              match Hashtbl.find_opt bound v with
              | Some `Term -> A_check_slot (slot v)
              | Some `Time -> raise Fallback
              | None ->
                Hashtbl.replace bound v `Term;
                if negated then temp := v :: !temp;
                A_bind (slot v))
            | _ -> raise Fallback)
        args
    in
    (Array.of_list specs, !temp)
  in
  let compile_time_arg ~negated tm =
    match tm with
    | Term.Int t -> (T_const t, [])
    | Term.Var v -> (
      match Hashtbl.find_opt bound v with
      | Some `Time -> (T_slot (slot v), [])
      | Some `Term -> raise Fallback
      | None ->
        Hashtbl.replace bound v `Time;
        (T_bind (slot v), if negated then [ v ] else []))
    | _ -> raise Fallback
  in
  let rec compile_num t =
    match t with
    | Term.Int n -> N_const (float_of_int n)
    | Term.Real r -> N_const r
    | Term.Var v -> (
      match Hashtbl.find_opt bound v with
      | Some _ -> N_slot (slot v)
      | None -> raise Fallback)
    | Term.Compound (("+" | "-" | "*" | "/") as op, [ a; b ]) ->
      let fa = num_fun frame (compile_num a) and fb = num_fun frame (compile_num b) in
      N_fun
        (match op with
        | "+" -> fun () -> fa () +. fb ()
        | "-" -> fun () -> fa () -. fb ()
        | "*" -> fun () -> fa () *. fb ()
        | _ ->
          fun () ->
            let x = fa () and y = fb () in
            if y = 0. then Float.nan else x /. y)
    | _ -> N_const Float.nan
  in
  (* A ground-by-construction term builder over bound term slots. *)
  let rec compile_builder t =
    if Term.is_ground t then begin
      ignore (Intern.id_of_term intern t);
      fun () -> t
    end
    else
      match t with
      | Term.Var v -> (
        match Hashtbl.find_opt bound v with
        | Some `Term ->
          let s = slot v in
          fun () -> frame.terms.(s)
        | _ -> raise Fallback)
      | Term.Compound (f, args) ->
        let builders = List.map compile_builder args in
        fun () -> Term.Compound (f, List.map (fun b -> b ()) builders)
      | _ -> raise Fallback
  in
  let release temps = List.iter (Hashtbl.remove bound) temps in
  (* Analyses the literal NOW (populating [bound] and building tables)
     and returns a pure maker awaiting its continuation — so a left fold
     over the body performs the sequential binding analysis at compile
     time, before the head terminal is built. *)
  let compile_literal lit : (unit -> unit) -> unit -> unit =
    let positive, atom = Term.strip_not lit in
    match atom with
    | Term.Compound ("happensAt", [ (Term.Var _ as _ev); _ ]) -> raise Fallback
    | Term.Compound ("happensAt", [ ev; tm ]) ->
      let ind = Term.indicator ev in
      (* Read on every entry, never captured: [refresh] replaces it. *)
      let cell =
        memo tables.t_events ind (fun ind ->
            ref (events_table intern (Stream.indexed stream ~functor_:ind)))
      in
      let specs, temp_args = compile_args ~negated:(not positive) (Term.args ev) in
      let tspec, temp_time = compile_time_arg ~negated:(not positive) tm in
      if not positive then release (temp_args @ temp_time);
      let bounds () =
        match tspec with
        | T_bind _ -> (st.r_from, st.r_until)
        | T_const t -> if t < st.r_from || t > st.r_until then (1, 0) else (t, t)
        | T_slot s ->
          let t = frame.tvals.(s) in
          if t < st.r_from || t > st.r_until then (1, 0) else (t, t)
      in
      if positive then (
        fun k () ->
          let table = !cell in
          let times = table.c_times in
          let tlo, thi = bounds () in
          if tlo <= thi then begin
            let i = ref (lower_bound times tlo) in
            while !i < Array.length times && times.(!i) <= thi do
              let j = !i in
              if apply_specs frame specs table.c_ids.(j) table.c_terms.(j) table.c_nums.(j)
              then begin
                (match tspec with
                | T_bind s ->
                  frame.tvals.(s) <- times.(j);
                  frame.nums.(s) <- float_of_int times.(j)
                | _ -> ());
                k ()
              end;
              incr i
            done
          end)
      else
        fun k () ->
          let table = !cell in
          let times = table.c_times in
          let tlo, thi = bounds () in
          let found = ref false in
          if tlo <= thi then begin
            let i = ref (lower_bound times tlo) in
            while (not !found) && !i < Array.length times && times.(!i) <= thi do
              let j = !i in
              if apply_specs frame specs table.c_ids.(j) table.c_terms.(j) table.c_nums.(j)
              then found := true;
              incr i
            done
          end;
          if not !found then k ()
    | Term.Compound ("holdsAt", [ fv; tm ]) -> (
      match Term.as_fvp fv with
      | None -> raise Fallback
      | Some (pf, pv) ->
        if Term.is_var pf then raise Fallback;
        (* Probe arguments must be bound term slots or constants; the
           value too (non-ground probes enumerate the cache, which stays
           with the interpreter). *)
        let value_id =
          if Term.is_ground pv then begin
            let id = Intern.id_of_term intern pv in
            fun () -> id
          end
          else
            match pv with
            | Term.Var v when Hashtbl.find_opt bound v = Some `Term ->
              let s = slot v in
              fun () -> frame.ids.(s)
            | _ -> raise Fallback
        in
        let time_val =
          match tm with
          | Term.Int t -> fun () -> t
          | Term.Var v when Hashtbl.find_opt bound v = Some `Time ->
            let s = slot v in
            fun () -> frame.tvals.(s)
          | _ -> raise Fallback
        in
        let resolve =
          if Term.is_ground pf && Term.is_ground pv then begin
            let id = Intern.fvp_of_terms intern pf pv in
            fun () -> id
          end
          else begin
            let build = compile_builder pf in
            let slow vid =
              match Intern.find_term intern (build ()) with
              | None -> -1
              | Some fid -> (
                match Intern.find_fvp intern ~fluent:fid ~value:vid with
                | Some id -> id
                | None -> -1)
            in
            (* Successful resolutions are memoised on the intern ids the
               builder reads (term -> id is append-only, so a positive
               entry can never go stale; failures are re-resolved, since
               the probed fvp may be interned by a later emission). This
               replaces a term construction + structural hash per probe
               with an int-keyed table hit. *)
            match List.map slot (Term.vars pf) with
            | [] ->
              let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
              fun () -> (
                let vid = value_id () in
                match Hashtbl.find_opt tbl vid with
                | Some id -> id
                | None ->
                  let id = slow vid in
                  if id >= 0 then Hashtbl.add tbl vid id;
                  id)
            | [ s1 ] ->
              let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
              fun () -> (
                let vid = value_id () in
                let key = (frame.ids.(s1), vid) in
                match Hashtbl.find_opt tbl key with
                | Some id -> id
                | None ->
                  let id = slow vid in
                  if id >= 0 then Hashtbl.add tbl key id;
                  id)
            | [ s1; s2 ] ->
              let tbl : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
              fun () -> (
                let vid = value_id () in
                let key = (frame.ids.(s1), frame.ids.(s2), vid) in
                match Hashtbl.find_opt tbl key with
                | Some id -> id
                | None ->
                  let id = slow vid in
                  if id >= 0 then Hashtbl.add tbl key id;
                  id)
            | _ -> fun () -> slow (value_id ())
          end
        in
        fun k () ->
          let t = time_val () in
          let fvp = resolve () in
          let holds =
            if fvp >= 0 then st.r_probe fvp t
            else begin
              st.r_miss ();
              false
            end
          in
          if holds = positive then k ())
    | Term.Compound (op, [ a; b ]) when List.mem op comparison_ops ->
      let test = compile_test frame op (compile_num a) (compile_num b) in
      if positive then (fun k () -> if test () then k ())
      else fun k () -> if not (test ()) then k ()
    | Term.Compound ("=", _) -> raise Fallback
    | Term.Compound (_, args) ->
      (* Knowledge lookup: candidate facts captured at compile time, in
         the exact order [Knowledge.solve] scans them. *)
      let table =
        memo tables.t_facts (Term.indicator atom) (facts_table intern knowledge)
      in
      let specs, temps = compile_args ~negated:(not positive) args in
      if not positive then release temps;
      let count = Array.length table.c_ids in
      if positive then
        fun k () ->
          for j = 0 to count - 1 do
            if apply_specs frame specs table.c_ids.(j) table.c_terms.(j) table.c_nums.(j)
            then k ()
          done
      else
        fun k () ->
          let found = ref false in
          let j = ref 0 in
          while (not !found) && !j < count do
            if apply_specs frame specs table.c_ids.(!j) table.c_terms.(!j) table.c_nums.(!j)
            then found := true;
            incr j
          done;
          if not !found then k ()
    | Term.Atom _ ->
      let table =
        memo tables.t_facts (Term.indicator atom) (facts_table intern knowledge)
      in
      let count = Array.length table.c_ids in
      if positive then fun k () -> (for _ = 1 to count do k () done)
      else fun k () -> if count = 0 then k ()
    | _ -> raise Fallback
  in
  (* Compile the body left to right (binding analysis is sequential),
     then fold the makers around the head emitter. *)
  let makers =
    List.rev
      (List.fold_left (fun acc lit -> compile_literal lit :: acc) [] r.Ast.body)
  in
  let terminal =
    let tslot =
      match time with
      | Term.Var v when Hashtbl.find_opt bound v = Some `Time -> slot v
      | _ -> raise Fallback
    in
    let fb = compile_builder fluent and vb = compile_builder value in
    fun () -> st.r_emit (Intern.fvp_of_terms intern (fb ()) (vb ())) frame.tvals.(tslot)
  in
  let chain = List.fold_right (fun mk k -> mk k) makers terminal in
  (* Snapshot the binding environment for the derivation recorder: after
     the whole body is analysed, [bound] holds exactly the positively
     bound variables — the domain of the interpreted substitution. *)
  let bindings =
    Hashtbl.fold (fun v k acc -> (v, k) :: acc) bound []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    cr_state = st;
    cr_chain = chain;
    cr_frame = frame;
    cr_bvars = Array.of_list (List.map (fun (v, k) -> (v, k = `Time)) bindings);
    cr_bslots =
      Array.of_list
        (List.map (fun (v, k) -> if k = `Time then lnot (slot v) else slot v) bindings);
  }

let compile ~analysis ~knowledge ~stream () =
  let intern = Intern.create () in
  let code = Hashtbl.create 64 in
  let tables = { t_events = Hashtbl.create 32; t_facts = Hashtbl.create 32 } in
  let compiled = ref 0 and fallback = ref 0 in
  List.iter
    (fun (info : Dependency.info) ->
      if info.fluent_class = Dependency.Simple then
        List.iteri
          (fun i r ->
            let entry =
              match Ast.kind_of_rule r with
              | Some (Ast.Initiated { fluent; value; time })
              | Some (Ast.Terminated { fluent; value; time }) -> (
                match
                  compile_rule intern ~tables ~stream ~knowledge r ~fluent ~value ~time
                with
                | cr ->
                  incr compiled;
                  Compiled cr
                | exception Fallback ->
                  incr fallback;
                  Interpreted)
              | _ -> Interpreted
            in
            Hashtbl.replace code (fst info.indicator, snd info.indicator, i) entry)
          info.rules)
    (Dependency.all analysis);
  {
    p_intern = intern;
    p_code = code;
    p_events = tables.t_events;
    p_compiled = !compiled;
    p_fallback = !fallback;
  }

let refresh p stream =
  Hashtbl.iter
    (fun ind cell ->
      let events = Stream.indexed stream ~functor_:ind in
      if events != !cell.c_src then cell := events_table ~prev:!cell p.p_intern events)
    p.p_events

let binding_vars cr = cr.cr_bvars

let binding_value cr i =
  let s = cr.cr_bslots.(i) in
  if s >= 0 then cr.cr_frame.ids.(s) else cr.cr_frame.tvals.(lnot s)

let run_rule cr ~from ~until ~probe ~miss ~emit =
  let st = cr.cr_state in
  st.r_from <- from;
  st.r_until <- until;
  st.r_probe <- probe;
  st.r_miss <- miss;
  st.r_emit <- emit;
  Fun.protect
    ~finally:(fun () ->
      (* Release the per-window callbacks (they close over the window's
         cache) so a long-lived program does not retain it. *)
      st.r_probe <- no_probe;
      st.r_miss <- no_miss;
      st.r_emit <- no_emit)
    cr.cr_chain
