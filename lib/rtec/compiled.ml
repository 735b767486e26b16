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

   The program outlives one stream value: its closures read each event
   table's rows and live length on entry, and [refresh] rewrites the
   table in place for a grown or trimmed stream, keeping the rows of the
   run of events the table already covers and interning only the rest.
   Rules, knowledge tables, the intern table and the probe memos survive
   a refresh: intern ids are never reused, so every id baked into them
   stays valid whatever the table's stream lost.

   A query pays only for what can match: a rule whose first literal is
   a positive happensAt is not entered when that literal's table holds
   no event in the window ([may_fire]); a knowledge literal visits only
   the fact rows whose key argument is the key atom; head and probe fvp
   ids are memoised on the intern ids of the slots they are built from;
   and the recorder's sink and each rule's record header are built once
   per program, not once per rule call.

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

(* --- pre-interned candidate tables --- *)

(* Rows [0, c_len) are live; an event table keeps spare rows past them
   so that a growing stream extends it in place. *)
type candidates = {
  mutable c_src : Stream.event array;  (* events: the stream array the rows mirror; facts: [||] *)
  mutable c_len : int;
  mutable c_times : int array;  (* events: sorted occurrence times; facts: [||] *)
  mutable c_ids : int array array;  (* per candidate: intern id of each argument *)
  mutable c_terms : Term.t array array;
  mutable c_nums : float array array;
}

type compiled_rule = {
  cr_state : rstate;
  cr_chain : unit -> unit;
  cr_frame : frame;
  cr_kind : Derivation.transition_kind;  (* initiation or termination *)
  cr_first : candidates option;  (* table of a positive first happensAt *)
  cr_bvars : (string * bool) array;  (* bound vars in name order; true = time slot *)
  cr_bslots : int array;  (* slot per binding; [lnot slot] for time slots *)
  (* The recorder header, built on the first recorded call: label id
     ([-1] until then) and the bind array with its keys filled in. *)
  mutable cr_label : int;
  mutable cr_binds : int array;
}
type rule_code = Compiled of compiled_rule | Interpreted

type program = {
  p_intern : Intern.t;
  p_code : (string * int, rule_code array) Hashtbl.t;  (* indicator -> code per rule *)
  p_events : (string * int, candidates) Hashtbl.t;  (* tables the closures read *)
  p_compiled : int;  (* rules compiled to closures *)
  p_fallback : int;  (* transition rules left to the interpreter *)
  mutable p_sink : Derivation.sink option;  (* the program's sink, once recording *)
}

let intern p = p.p_intern
let rule_codes p ~ind = Option.value ~default:[||] (Hashtbl.find_opt p.p_code ind)
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

(* First index below [len] with time >= t. *)
let lower_bound times len t =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if times.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

let no_candidates () =
  { c_src = [||]; c_len = 0; c_times = [||]; c_ids = [||]; c_terms = [||]; c_nums = [||] }

(* Points table [tb] at an indicator's event array, in place. Rows are
   kept for the leading run of [events] that is physically a run of the
   table's source, found by locating [events.(0)] there (binary search
   on the times, then physical identity among equal times): a grown
   stream shares the events it already had from offset 0, so nothing
   moves; a trimmed one ([Stream.drop_before]) a suffix of them, which
   is blitted to offset 0; a late insert keeps the run before it. Only
   the events after that run are interned. Rows past the new length are
   cleared, so the table holds nothing its stream dropped. When the rows
   outgrow the arrays, the arrays are reallocated at twice the new
   length: capacity stays within twice the most rows the table has
   held. A new table is sized exactly. *)
let fill_table tb intern events =
  let n = Array.length events and src = tb.c_src and len = tb.c_len in
  let off =
    if n = 0 then 0
    else begin
      let e0 : Stream.event = events.(0) in
      let i = ref (lower_bound tb.c_times len e0.time) in
      while !i < len && tb.c_times.(!i) = e0.time && src.(!i) != e0 do
        incr i
      done;
      !i
    end
  in
  let keep = ref 0 and shared = min n (len - off) in
  while !keep < shared && events.(!keep) == src.(off + !keep) do
    incr keep
  done;
  let keep = !keep in
  if n > Array.length tb.c_times then begin
    let cap = if len = 0 then n else 2 * n in
    let extend rows fill =
      let a = Array.make cap fill in
      Array.blit rows off a 0 keep;
      a
    in
    tb.c_times <- extend tb.c_times 0;
    tb.c_ids <- extend tb.c_ids [||];
    tb.c_terms <- extend tb.c_terms [||];
    tb.c_nums <- extend tb.c_nums [||]
  end
  else if off > 0 && keep > 0 then begin
    Array.blit tb.c_times off tb.c_times 0 keep;
    Array.blit tb.c_ids off tb.c_ids 0 keep;
    Array.blit tb.c_terms off tb.c_terms 0 keep;
    Array.blit tb.c_nums off tb.c_nums 0 keep
  end;
  for j = keep to n - 1 do
    let e = events.(j) in
    tb.c_times.(j) <- e.time;
    let ids, tarr, nums = intern_args intern (Term.args e.term) in
    tb.c_ids.(j) <- ids;
    tb.c_terms.(j) <- tarr;
    tb.c_nums.(j) <- nums
  done;
  for j = n to len - 1 do
    tb.c_ids.(j) <- [||];
    tb.c_terms.(j) <- [||];
    tb.c_nums.(j) <- [||]
  done;
  tb.c_src <- events;
  tb.c_len <- n

let events_table intern events =
  let tb = no_candidates () in
  fill_table tb intern events;
  tb

(* A knowledge indicator's facts, in the order [Knowledge.solve] scans
   them, with per-argument row indexes built on first use. *)
type facts = {
  f_rows : candidates;
  f_all : int array;  (* every row, in table order *)
  f_keys : (int, (int, int array) Hashtbl.t) Hashtbl.t;
      (* argument position -> intern id -> rows holding it there, in order *)
}

(* Candidate tables are interned once per program: every literal on the
   same indicator — across all rules — shares one table, so compiling 70
   rules scans the stream once per indicator, not once per literal. *)
type tables = {
  t_events : (string * int, candidates) Hashtbl.t;
  t_facts : (string * int, facts) Hashtbl.t;
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
  {
    f_rows = { (no_candidates ()) with c_len = n; c_ids; c_terms; c_nums };
    f_all = Array.init n Fun.id;
    f_keys = Hashtbl.create 2;
  }

let memo tbl ind build =
  match Hashtbl.find_opt tbl ind with
  | Some t -> t
  | None ->
    let t = build ind in
    Hashtbl.replace tbl ind t;
    t

let rows_by_arg facts k =
  memo facts.f_keys k (fun k ->
      let ids = facts.f_rows.c_ids in
      let rows = Hashtbl.create 16 in
      for j = Array.length ids - 1 downto 0 do
        let id = ids.(j).(k) in
        Hashtbl.replace rows id (j :: Option.value ~default:[] (Hashtbl.find_opt rows id))
      done;
      Hashtbl.to_seq rows |> Seq.map (fun (id, js) -> (id, Array.of_list js)) |> Hashtbl.of_seq)

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

(* [resolve ()] memoised on the intern ids bound in [slots]. Interning is
   injective, so equal ids mean equal terms and whatever is built from
   those slots resolves the same way; ids are append-only, so a kept
   entry never goes stale. Only non-negative results are kept: a failed
   probe resolution may succeed once a later emission interns its fvp.
   This replaces a term construction and a structural hash per call with
   an int-keyed table hit. Keys hold up to three slots (more resolve on
   every call); a table is made on first use. A one-slot memo keeps its
   last key inline and makes its table only for a second key: a bucket
   often holds one entity, and a program is compiled again after every
   trim. *)
let memo_on_slots frame slots resolve =
  let keep tbl key id =
    if id >= 0 then Hashtbl.add tbl key id;
    id
  in
  match slots with
  | [] ->
    let known = ref (-1) in
    fun () ->
      if !known < 0 then known := resolve ();
      !known
  | [ s1 ] ->
    let last_key = ref (-1) and last_id = ref (-1) and tbl = lazy (Hashtbl.create 16) in
    fun () ->
      let key = frame.ids.(s1) in
      if key = !last_key then !last_id
      else begin
        let id =
          if !last_key < 0 then resolve ()
          else
            let tbl = Lazy.force tbl in
            match Hashtbl.find tbl key with
            | id -> id
            | exception Not_found -> keep tbl key (resolve ())
        in
        if id >= 0 then begin
          last_key := key;
          last_id := id
        end;
        id
      end
  | [ s1; s2 ] ->
    let tbl = lazy (Hashtbl.create 16) in
    fun () -> (
      let tbl = Lazy.force tbl and key = (frame.ids.(s1), frame.ids.(s2)) in
      match Hashtbl.find tbl key with id -> id | exception Not_found -> keep tbl key (resolve ()))
  | [ s1; s2; s3 ] ->
    let tbl = lazy (Hashtbl.create 16) in
    fun () -> (
      let tbl = Lazy.force tbl and key = (frame.ids.(s1), frame.ids.(s2), frame.ids.(s3)) in
      match Hashtbl.find tbl key with id -> id | exception Not_found -> keep tbl key (resolve ()))
  | _ -> resolve

(* The fact rows a knowledge literal visits. Its key is the first
   argument checked against a constant atom or against a slot bound
   before the literal. An atom matches only its own intern id, so only
   the rows holding that id there can match; they are visited in table
   order. A number matches across Int/Real and a compound by
   unification, so such a key scans every row, as does a literal
   without a key. *)
let fact_rows frame facts specs =
  let bound_earlier s k =
    let rec go j =
      j < k && ((match specs.(j) with A_bind s' -> s' = s | _ -> false) || go (j + 1))
    in
    go 0
  in
  let rec key k =
    if k >= Array.length specs then None
    else
      match specs.(k) with
      | A_check_const (_, Term.Atom _, _) -> Some k
      | A_check_slot s when not (bound_earlier s k) -> Some k
      | _ -> key (k + 1)
  in
  match key 0 with
  | None -> fun () -> facts.f_all
  | Some k -> (
    let index = rows_by_arg facts k in
    let rows id = match Hashtbl.find index id with rows -> rows | exception Not_found -> [||] in
    match specs.(k) with
    | A_check_const (id, _, _) ->
      let rows = rows id in
      fun () -> rows
    | A_check_slot s -> (
      fun () ->
        match frame.terms.(s) with
        | Term.Int _ | Term.Real _ | Term.Compound _ -> facts.f_all
        | _ -> rows frame.ids.(s))
    | A_bind _ -> assert false)

let compile_rule intern ~tables ~stream ~knowledge (r : Ast.rule) ~kind ~fluent ~value ~time =
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
  let term_slots terms =
    List.sort_uniq compare (List.concat_map (fun t -> List.map slot (Term.vars t)) terms)
  in
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
      (* Its fields are read on every entry, never captured: [refresh]
         rewrites them. *)
      let table =
        memo tables.t_events ind (fun ind ->
            events_table intern (Stream.indexed stream ~functor_:ind))
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
          let times = table.c_times and len = table.c_len in
          let tlo, thi = bounds () in
          if tlo <= thi then begin
            let i = ref (lower_bound times len tlo) in
            while !i < len && times.(!i) <= thi do
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
          let times = table.c_times and len = table.c_len in
          let tlo, thi = bounds () in
          let found = ref false in
          if tlo <= thi then begin
            let i = ref (lower_bound times len tlo) in
            while (not !found) && !i < len && times.(!i) <= thi do
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
            memo_on_slots frame (term_slots [ pf; pv ]) (fun () ->
                match Intern.find_term intern (build ()) with
                | None -> -1
                | Some fid -> (
                  match Intern.find_fvp intern ~fluent:fid ~value:(value_id ()) with
                  | Some id -> id
                  | None -> -1))
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
         the exact order [Knowledge.solve] scans them; the literal visits
         only the rows its key can match. *)
      let facts =
        memo tables.t_facts (Term.indicator atom) (facts_table intern knowledge)
      in
      let table = facts.f_rows in
      let specs, temps = compile_args ~negated:(not positive) args in
      if not positive then release temps;
      let rows = fact_rows frame facts specs in
      if positive then
        fun k () ->
          let rows = rows () in
          for r = 0 to Array.length rows - 1 do
            let j = rows.(r) in
            if apply_specs frame specs table.c_ids.(j) table.c_terms.(j) table.c_nums.(j)
            then k ()
          done
      else
        fun k () ->
          let rows = rows () in
          let found = ref false in
          let r = ref 0 in
          while (not !found) && !r < Array.length rows do
            let j = rows.(!r) in
            if apply_specs frame specs table.c_ids.(j) table.c_terms.(j) table.c_nums.(j)
            then found := true;
            incr r
          done;
          if not !found then k ()
    | Term.Atom _ ->
      let facts =
        memo tables.t_facts (Term.indicator atom) (facts_table intern knowledge)
      in
      let count = Array.length facts.f_all in
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
    let head =
      memo_on_slots frame (term_slots [ fluent; value ]) (fun () ->
          Intern.fvp_of_terms intern (fb ()) (vb ()))
    in
    fun () -> st.r_emit (head ()) frame.tvals.(tslot)
  in
  let chain = List.fold_right (fun mk k -> mk k) makers terminal in
  let first =
    match r.Ast.body with
    | lit :: _ -> (
      match Term.strip_not lit with
      | true, Term.Compound ("happensAt", [ ev; _ ]) ->
        Hashtbl.find_opt tables.t_events (Term.indicator ev)
      | _ -> None)
    | [] -> None
  in
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
    cr_kind = kind;
    cr_first = first;
    cr_bvars = Array.of_list (List.map (fun (v, k) -> (v, k = `Time)) bindings);
    cr_bslots =
      Array.of_list
        (List.map (fun (v, k) -> if k = `Time then lnot (slot v) else slot v) bindings);
    cr_label = -1;
    cr_binds = [||];
  }

let compile ~analysis ~knowledge ~stream () =
  let intern = Intern.create () in
  let code = Hashtbl.create 16 in
  let tables = { t_events = Hashtbl.create 8; t_facts = Hashtbl.create 8 } in
  let compiled = ref 0 and fallback = ref 0 in
  let compile_one r ~kind ~fluent ~value ~time =
    match compile_rule intern ~tables ~stream ~knowledge r ~kind ~fluent ~value ~time with
    | cr ->
      incr compiled;
      Compiled cr
    | exception Fallback ->
      incr fallback;
      Interpreted
  in
  List.iter
    (fun (info : Dependency.info) ->
      if info.fluent_class = Dependency.Simple then
        Hashtbl.replace code info.indicator
          (Array.of_list
             (List.map
                (fun r ->
                  match Ast.kind_of_rule r with
                  | Some (Ast.Initiated { fluent; value; time }) ->
                    compile_one r ~kind:Derivation.Init ~fluent ~value ~time
                  | Some (Ast.Terminated { fluent; value; time }) ->
                    compile_one r ~kind:Derivation.Term ~fluent ~value ~time
                  | _ -> Interpreted)
                info.rules)))
    (Dependency.all analysis);
  {
    p_intern = intern;
    p_code = code;
    p_events = tables.t_events;
    p_compiled = !compiled;
    p_fallback = !fallback;
    p_sink = None;
  }

let refresh p stream =
  Hashtbl.iter
    (fun ind table ->
      let events = Stream.indexed stream ~functor_:ind in
      if events != table.c_src then fill_table table p.p_intern events)
    p.p_events

let kind cr = cr.cr_kind

(* One binary search. A positive first happensAt with no event in
   [from, until] enumerates nothing, so the chain would neither probe nor
   emit: skipping it changes no result, record or counter. *)
let may_fire cr ~from ~until =
  match cr.cr_first with
  | None -> true
  | Some table ->
    let times = table.c_times and len = table.c_len in
    let i = lower_bound times len from in
    i < len && times.(i) <= until

let sink p =
  let sk = Derivation.sink ?reuse:p.p_sink ~intern:p.p_intern () in
  if Option.is_some sk then p.p_sink <- sk;
  sk

(* The current frame value of a binding: the intern id of the bound
   term, or the raw time-point of a time slot. *)
let binding_value cr i =
  let s = cr.cr_bslots.(i) in
  if s >= 0 then cr.cr_frame.ids.(s) else cr.cr_frame.tvals.(lnot s)

let recorded cr sk ~label emit =
  let n = Array.length cr.cr_bvars in
  if cr.cr_label < 0 then begin
    let binds = Array.make (2 * n) 0 in
    Array.iteri
      (fun j (v, is_time) ->
        binds.(2 * j) <- (Derivation.sink_string v lsl 1) lor Bool.to_int is_time)
      cr.cr_bvars;
    cr.cr_label <- Derivation.sink_string (label ());
    cr.cr_binds <- binds
  end;
  let rule = cr.cr_label and binds = cr.cr_binds in
  fun id t ->
    emit id t;
    for j = 0 to n - 1 do
      binds.((2 * j) + 1) <- binding_value cr j
    done;
    Derivation.sink_transition_ids sk ~kind:cr.cr_kind ~rule ~fvp:id ~time:t ~binds

(* Releases the per-window callbacks (they close over the window's
   cache) so a long-lived program does not retain it. *)
let release st =
  st.r_probe <- no_probe;
  st.r_miss <- no_miss;
  st.r_emit <- no_emit

let run_rule cr ~from ~until ~probe ~miss ~emit =
  let st = cr.cr_state in
  st.r_from <- from;
  st.r_until <- until;
  st.r_probe <- probe;
  st.r_miss <- miss;
  st.r_emit <- emit;
  match cr.cr_chain () with
  | () -> release st
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release st;
    Printexc.raise_with_backtrace e bt
