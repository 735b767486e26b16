type fvp = Term.t * Term.t

let compare_fvp (f1, v1) (f2, v2) =
  let c = Term.compare f1 f2 in
  if c <> 0 then c else Term.compare v1 v2
type result = (fvp * Interval.t) list

(* Telemetry probes: single-branch no-ops until [Telemetry.Metrics.enable]
   is called, so they can sit inside the cache lookup path. *)
let m_cache_hit = Telemetry.Metrics.counter "engine.cache.hit"
let m_cache_miss = Telemetry.Metrics.counter "engine.cache.miss"
let m_rule_evals = Telemetry.Metrics.counter "engine.rule_evaluations"
let m_compiled_hit = Telemetry.Metrics.counter "engine.compiled.hit"
let m_compiled_miss = Telemetry.Metrics.counter "engine.compiled.miss"
let m_compiled_skipped = Telemetry.Metrics.counter "engine.compiled.skipped"

module Cache = struct
  (* Maximal intervals of every ground FVP computed so far: the engine's
     bottom-up cache, keyed by interned FVP id so lookups are a single
     int-keyed hashtable probe instead of structural term hashing. Each
     indicator keeps its FVP ids in insertion order, and the indicators
     are kept in first-insertion order, for deterministic enumeration
     (the compiled and interpreted paths perform the same [add]
     sequence, so result order is identical either way). *)

  type t = {
    intern : Intern.t;
    spans : (int, Interval.t) Hashtbl.t;  (* fvp id -> intervals *)
    by_indicator : (string * int, int list ref) Hashtbl.t;  (* reverse insertion order *)
    mutable order : int list ref list;  (* [by_indicator]'s lists, newest indicator first *)
  }

  let create ?intern () =
    let intern = match intern with Some i -> i | None -> Intern.create () in
    { intern; spans = Hashtbl.create 16; by_indicator = Hashtbl.create 8; order = [] }

  let intern t = t.intern

  let entries_of t ids =
    List.rev_map (fun id -> (Intern.fvp_terms t.intern id, Hashtbl.find t.spans id)) ids

  let entries t ind =
    match Hashtbl.find_opt t.by_indicator ind with
    | None -> []
    | Some r -> entries_of t !r

  let add_id t ~ind id spans =
    match Hashtbl.find_opt t.spans id with
    | None ->
      Hashtbl.replace t.spans id spans;
      (match Hashtbl.find_opt t.by_indicator ind with
      | None ->
        let r = ref [ id ] in
        Hashtbl.replace t.by_indicator ind r;
        t.order <- r :: t.order
      | Some r -> r := id :: !r)
    | Some old -> Hashtbl.replace t.spans id (Interval.union old spans)

  let add t (fluent, value) spans =
    let id = Intern.fvp_of_terms t.intern fluent value in
    add_id t ~ind:(Term.indicator fluent) id spans

  (* Uncounted probe by interned id: the compiled evaluator charges the
     hit/miss counters itself (so counts match the interpreter exactly). *)
  let lookup_id t id = Hashtbl.find_opt t.spans id

  let lookup t (fluent, value) =
    let found =
      match Intern.find_fvp_terms t.intern fluent value with
      | None -> None
      | Some id -> Hashtbl.find_opt t.spans id
    in
    Telemetry.Metrics.incr (match found with Some _ -> m_cache_hit | None -> m_cache_miss);
    found

  (* Indicators in first-insertion order, each one's entries in
     insertion order. *)
  let to_result t =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc id -> (Intern.fvp_terms t.intern id, Hashtbl.find t.spans id) :: acc)
          acc !r)
      [] t.order
end

type env = {
  stream : Stream.t;
  knowledge : Knowledge.t;
  cache : Cache.t;
  from : int;
  until : int;
  universe : (string * int, fvp list ref) Hashtbl.t Lazy.t;
      (* extra SD grounding candidates (FVPs recognised in earlier windows),
         indexed by fluent indicator when a holdsFor body first
         enumerates a fluent schema *)
}

(* --- arithmetic and comparisons --- *)

let rec eval_num subst t =
  match Subst.apply subst t with
  | Term.Int n -> Some (float_of_int n)
  | Term.Real r -> Some r
  | Term.Compound (("+" | "-" | "*" | "/") as op, [ a; b ]) -> (
    match (eval_num subst a, eval_num subst b) with
    | Some x, Some y -> (
      match op with
      | "+" -> Some (x +. y)
      | "-" -> Some (x -. y)
      | "*" -> Some (x *. y)
      | _ -> if y = 0. then None else Some (x /. y))
    | _ -> None)
  | _ -> None

let compare_solutions op subst a b =
  match op with
  | "=" -> (
    (* [=] doubles as unification, as in Prolog. *)
    match Unify.unify ~subst (Subst.apply subst a) (Subst.apply subst b) with
    | Some s -> [ s ]
    | None -> [])
  | _ -> (
    match (eval_num subst a, eval_num subst b) with
    | Some x, Some y ->
      let holds =
        match op with
        | "<" -> x < y
        | ">" -> x > y
        | ">=" -> x >= y
        | "=<" -> x <= y
        | "\\=" -> not (Float.equal x y)
        | _ -> false
      in
      if holds then [ subst ] else []
    | _ -> [])

(* --- body evaluation for simple-fluent rules --- *)

let happens_solutions env subst event time =
  let event = Subst.apply subst event in
  if Term.is_var event then []
  else
    let functor_ = Term.indicator event in
    let candidates =
      match Subst.apply subst time with
      | Term.Int t ->
        if t < env.from || t > env.until then []
        else Stream.events_at env.stream ~functor_ ~time:t
      | Term.Var _ -> Stream.events_in env.stream ~functor_ ~from:env.from ~until:env.until
      | _ -> []
    in
    List.filter_map
      (fun (e : Stream.event) ->
        match Unify.unify ~subst event e.term with
        | None -> None
        | Some s -> Unify.unify ~subst:s time (Term.Int e.time))
      candidates

(* FVPs of the given indicator holding at time-point [t]. PR 1 memoised
   this per (time, indicator) on a cache generation counter, but the memo
   never hit on any bench workload (`engine.holds_memo.hit` = 0 across the
   full sweep): ground probes — the overwhelming majority — take the
   direct [Cache.lookup] path below, and the non-ground probes that do
   reach here carry distinct time-points (one per triggering event), so
   keys never repeated. PR 4 removed the memo, its counters and the cache
   generation bookkeeping; what remains is the plain scan it guarded. *)
let holding_at env ind t =
  Cache.entries env.cache ind
  |> List.filter_map (fun (fv, spans) -> if Interval.mem t spans then Some fv else None)

let holds_at_solutions env subst fv time =
  match Subst.apply subst time with
  | Term.Int t -> (
    match Term.as_fvp (Subst.apply subst fv) with
    | None -> []
    | Some (fluent, value) ->
      if Term.is_var fluent then []
      else if Term.is_ground fluent && Term.is_ground value then
        (* Ground probe: a direct two-level cache lookup. *)
        match Cache.lookup env.cache (fluent, value) with
        | Some spans when Interval.mem t spans -> [ subst ]
        | _ -> []
      else
        holding_at env (Term.indicator fluent) t
        |> List.filter_map (fun (f, v) ->
               match Unify.unify ~subst fluent f with
               | None -> None
               | Some s -> Unify.unify ~subst:s value v))
  | _ -> []

let rec literal_solutions env subst literal =
  let positive, atom = Term.strip_not literal in
  let positives =
    match atom with
    | Term.Compound ("happensAt", [ event; time ]) -> happens_solutions env subst event time
    | Term.Compound ("holdsAt", [ fv; time ]) -> holds_at_solutions env subst fv time
    | Term.Compound (("<" | ">" | ">=" | "=<" | "\\=" | "=") as op, [ a; b ]) ->
      compare_solutions op subst a b
    | _ -> Knowledge.solve env.knowledge subst atom
  in
  if positive then positives
  else if positives = [] then [ subst ]
  else []

and body_solutions env subst = function
  | [] -> [ subst ]
  | literal :: rest ->
    literal_solutions env subst literal
    |> List.concat_map (fun s -> body_solutions env s rest)

(* Stable provenance label for the [i]-th rule of an indicator: the
   parser-assigned id when present, a positional fallback otherwise. *)
(* Plain concatenation, not [Printf]: the recorder asks for the label of
   every traced rule once per window, and formatted printing is an order
   of magnitude slower than [^]. *)
let rule_label ind i (r : Ast.rule) =
  if String.equal r.Ast.id "" then
    fst ind ^ "/" ^ string_of_int (snd ind) ^ "#" ^ string_of_int (i + 1)
  else r.Ast.id

(* The catalogue of labelled rules across the whole event description —
   the index {!Derivation.events} uses to reconstruct proof steps from
   compact records. *)
let labelled_rules event_description =
  Dependency.all (Dependency.analyse event_description)
  |> List.concat_map (fun (info : Dependency.info) ->
         List.mapi (fun i r -> (rule_label info.Dependency.indicator i r, r)) info.rules)

(* The successful substitution, fully resolved, for the derivation
   recorder — the interpreted counterpart of the slot bindings
   [Compiled.recorded] reads. *)
let resolved_bindings s =
  List.map (fun (x, _) -> (x, Subst.apply s (Term.Var x))) (Subst.bindings s)

(* Evaluate one initiatedAt/terminatedAt rule, returning the (fvp,
   time-point) pairs it derives within the window. Initiations must be
   ground (they create FVP instances); terminations may retain variables —
   e.g. rule (3) of the paper terminates withinArea(Vl, AreaType) for every
   AreaType on a communication gap — and then act as patterns terminating
   every matching instance. *)
let transition_points env ~label ~kind (r : Ast.rule) ~fluent ~value ~time ~require_ground =
  Telemetry.Metrics.incr m_rule_evals;
  let recording = Derivation.recording () in
  let finish s =
    let f = Subst.apply s fluent and v = Subst.apply s value in
    match Subst.apply s time with
    | Term.Int t when (not require_ground) || (Term.is_ground f && Term.is_ground v) ->
      if recording && Term.is_ground f && Term.is_ground v then
        Derivation.record_transition ~kind ~rule:label ~fluent:f ~value:v ~time:t
          ~binds:(resolved_bindings s);
      Some ((f, v), t)
    | _ -> None
  in
  body_solutions env Subst.empty r.Ast.body |> List.filter_map finish

(* --- statically determined fluents --- *)

module Imap = Map.Make (String)

(* Solutions to a holdsFor body literal: extended substitution plus the
   interval list bound to the literal's interval variable. A ground FVP
   with no cached intervals binds the empty list, so that e.g. a union over
   the values of a multi-valued fluent still succeeds when some value never
   held (RTEC's semantics). *)
let universe_fvps env ind =
  match Hashtbl.find_opt (Lazy.force env.universe) ind with None -> [] | Some r -> !r

let holds_for_solutions env subst (fluent, value) =
  let fluent = Subst.apply subst fluent and value = Subst.apply subst value in
  let with_value subst fluent =
    if Term.is_ground value then
      let spans =
        Option.value ~default:Interval.empty (Cache.lookup env.cache (fluent, value))
      in
      [ (subst, spans) ]
    else
      let cached =
        Cache.entries env.cache (Term.indicator fluent)
        |> List.filter_map (fun ((f, v), spans) ->
               if Term.equal f fluent then
                 Unify.unify ~subst value v |> Option.map (fun s -> (s, spans))
               else None)
      in
      (* Value groundings recognised in earlier windows but absent from this
         window's cache bind the empty interval list, like any ground FVP
         with no cached intervals. *)
      let carried =
        universe_fvps env (Term.indicator fluent)
        |> List.filter_map (fun (f, v) ->
               if Term.equal f fluent && Cache.lookup env.cache (f, v) = None then
                 Unify.unify ~subst value v |> Option.map (fun s -> (s, Interval.empty))
               else None)
      in
      cached @ carried
  in
  if Term.is_var fluent then []
  else if Term.is_ground fluent then with_value subst fluent
  else
    (* Enumerate the known groundings of the fluent schema, whatever their
       value, then resolve the requested value against each grounding. The
       universe contributes groundings recognised in earlier windows, so
       sliding-window evaluation enumerates the same entities as a
       single-pass run even when the enabling fluent is quiet in the
       current window. *)
    Cache.entries env.cache (Term.indicator fluent)
    |> List.map (fun ((f, _), _) -> f)
    |> List.rev_append (List.map fst (universe_fvps env (Term.indicator fluent)))
    |> List.sort_uniq Term.compare
    |> List.concat_map (fun f ->
           match Unify.unify ~subst fluent f with
           | None -> []
           | Some s -> with_value s (Subst.apply s fluent))

let operand_spans r imap t =
  match t with
  | Term.Var v -> (
    match Imap.find_opt v imap with
    | Some spans -> Ok spans
    | None ->
      Result.Error
        (Printf.sprintf "rule %s: interval variable %s is unbound"
           (Printer.rule_to_string r) v))
  | _ ->
    Result.Error
      (Printf.sprintf "rule %s: expected an interval variable" (Printer.rule_to_string r))

let rec collect_operands r imap = function
  | [] -> Ok []
  | t :: rest ->
    Result.bind (operand_spans r imap t) (fun spans ->
        Result.bind (collect_operands r imap rest) (fun more -> Ok (spans :: more)))

let bind_interval r imap out spans =
  match out with
  | Term.Var v when not (Imap.mem v imap) -> Ok (Imap.add v spans imap)
  | Term.Var v -> Result.Error (Printf.sprintf "rule %s: %s bound twice" (Printer.rule_to_string r) v)
  | _ -> Result.Error (Printf.sprintf "rule %s: interval output must be a variable" (Printer.rule_to_string r))

(* Evaluate the body of a holdsFor rule; each solution carries the final
   substitution, interval-variable environment and — when [trace] is set —
   the per-condition trail for the derivation recorder: (1-based condition
   index, interval list the condition contributed) pairs, which
   [Derivation.events] later re-grounds lazily against the rule body (an
   empty list otherwise; building it is the only difference, so solutions
   are identical either way). Interval-construct errors abort the whole
   evaluation (they indicate an ill-formed rule). *)
let rec sd_solutions env r ~trace idx subst imap trail = function
  | [] -> Ok [ (subst, imap, List.rev trail) ]
  | Term.Compound ("holdsFor", [ fv; ivar ]) :: rest -> (
    match Term.as_fvp (Subst.apply subst fv) with
    | None ->
      Result.Error
        (Printf.sprintf "rule %s: holdsFor argument is not an FVP" (Printer.rule_to_string r))
    | Some fvp ->
      let branches = holds_for_solutions env subst fvp in
      let rec go acc = function
        | [] -> Ok (List.concat (List.rev acc))
        | (s, spans) :: more -> (
          match bind_interval r imap ivar spans with
          | Result.Error e -> Result.Error e
          | Ok imap' -> (
            let trail = if trace then (idx, Interval.to_list spans) :: trail else trail in
            match sd_solutions env r ~trace (idx + 1) s imap' trail rest with
            | Result.Error e -> Result.Error e
            | Ok sols -> go (sols :: acc) more))
      in
      go [] branches)
  | Term.Compound (("union_all" | "intersect_all") as op, [ operands; out ]) :: rest -> (
    match Term.as_list operands with
    | None ->
      Result.Error
        (Printf.sprintf "rule %s: %s expects a list" (Printer.rule_to_string r) op)
    | Some elems ->
      Result.bind (collect_operands r imap elems) (fun lists ->
          let spans =
            if String.equal op "union_all" then Interval.union_all lists
            else Interval.intersect_all lists
          in
          Result.bind (bind_interval r imap out spans) (fun imap' ->
              let trail = if trace then (idx, Interval.to_list spans) :: trail else trail in
              sd_solutions env r ~trace (idx + 1) subst imap' trail rest)))
  | Term.Compound ("relative_complement_all", [ i; operands; out ]) :: rest -> (
    match Term.as_list operands with
    | None ->
      Result.Error
        (Printf.sprintf "rule %s: relative_complement_all expects a list"
           (Printer.rule_to_string r))
    | Some elems ->
      Result.bind (operand_spans r imap i) (fun base ->
          Result.bind (collect_operands r imap elems) (fun lists ->
              let spans = Interval.relative_complement_all base lists in
              Result.bind (bind_interval r imap out spans) (fun imap' ->
                  let trail =
                    if trace then (idx, Interval.to_list spans) :: trail else trail
                  in
                  sd_solutions env r ~trace (idx + 1) subst imap' trail rest))))
  | Term.Compound ("intDurGreater", [ i; threshold; out ]) :: rest -> (
    let min_duration =
      match threshold with
      | Term.Int n -> Some n
      | Term.Real x -> Some (int_of_float x)
      | _ -> None
    in
    match min_duration with
    | None ->
      Result.Error
        (Printf.sprintf "rule %s: intDurGreater expects a numeric threshold"
           (Printer.rule_to_string r))
    | Some min_duration ->
      Result.bind (operand_spans r imap i) (fun base ->
          let spans = Interval.filter_duration ~min_duration base in
          Result.bind (bind_interval r imap out spans) (fun imap' ->
              let trail = if trace then (idx, Interval.to_list spans) :: trail else trail in
              sd_solutions env r ~trace (idx + 1) subst imap' trail rest)))
  | literal :: _ ->
    Result.Error
      (Printf.sprintf "rule %s: literal %s is not allowed in a holdsFor body"
         (Printer.rule_to_string r) (Term.to_string literal))

(* --- fluent evaluation --- *)

module FvpMap = Map.Make (struct
  type t = fvp

  let compare (f1, v1) (f2, v2) =
    let c = Term.compare f1 f2 in
    if c <> 0 then c else Term.compare v1 v2
end)

let evaluate_simple env ~ind ~carry (rules : Ast.rule list) =
  let inits = ref FvpMap.empty and terms = ref FvpMap.empty in
  let term_patterns = ref [] in
  let record store (fv, t) =
    store := FvpMap.update fv (fun o -> Some (t :: Option.value ~default:[] o)) !store
  in
  List.iteri
    (fun i r ->
      match Ast.kind_of_rule r with
      | Some (Ast.Initiated { fluent; value; time }) ->
        List.iter (record inits)
          (transition_points env ~label:(rule_label ind i r) ~kind:Derivation.Init r ~fluent
             ~value ~time ~require_ground:true)
      | Some (Ast.Terminated { fluent; value; time }) ->
        let label = rule_label ind i r in
        List.iter
          (fun (((f, v) as fv), t) ->
            if Term.is_ground f && Term.is_ground v then record terms (fv, t)
            else term_patterns := ((fv, t), label) :: !term_patterns)
          (transition_points env ~label ~kind:Derivation.Term r ~fluent ~value ~time
             ~require_ground:false)
      | _ -> ())
    rules;
  (* FVPs of this fluent holding at the window start persist by inertia:
     seed an initiation just before the window. *)
  List.iter
    (fun (((f, v) as fv), origin) ->
      record inits (fv, env.from - 1);
      if Derivation.recording () then
        Derivation.record_carry ~origin ~fluent:f ~value:v ~time:(env.from - 1))
    carry;
  (* The initiation of a different value of the same fluent terminates the
     current value (a fluent has at most one value at a time). *)
  let compare_fvp (f1, v1) (f2, v2) =
    let c = Term.compare f1 f2 in
    if c <> 0 then c else Term.compare v1 v2
  in
  let all_fvps =
    FvpMap.fold (fun fv _ acc -> fv :: acc) !inits []
    @ FvpMap.fold (fun fv _ acc -> fv :: acc) !terms []
    |> List.sort_uniq compare_fvp
  in
  List.iter
    (fun ((fluent, value) as fv) ->
      let starts = Option.value ~default:[] (FvpMap.find_opt fv !inits) in
      if starts <> [] then begin
        let stops = Option.value ~default:[] (FvpMap.find_opt fv !terms) in
        let stops =
          (* Non-ground termination patterns apply to every matching
             ground instance. *)
          List.fold_left
            (fun acc (((pf, pv), t), plabel) ->
              match Unify.unify pf fluent with
              | Some s when Option.is_some (Unify.unify ~subst:s pv value) ->
                if Derivation.recording () then
                  Derivation.record_pattern ~rule:plabel ~pattern:(Term.eq pf pv) ~fluent
                    ~value ~time:t;
                t :: acc
              | _ -> acc)
            stops !term_patterns
        in
        let other_value_inits =
          FvpMap.fold
            (fun (f, v) ts acc ->
              if Term.equal f fluent && not (Term.equal v value) then ts @ acc else acc)
            !inits []
        in
        let spans = Interval.from_points ~starts ~stops:(stops @ other_value_inits) in
        if not (Interval.is_empty spans) then Cache.add env.cache fv spans
      end)
    all_fvps

(* Growable int buffer for transition-point accumulation (OCaml 5.1 has
   no Dynarray): flat scratch storage the interval kernel consumes
   directly, in place of per-cons list cells. *)
type ivec = { mutable buf : int array; mutable len : int }

let ivec_make () = { buf = Array.make 8 0; len = 0 }

let ivec_push v x =
  if v.len = Array.length v.buf then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 b 0 v.len;
    v.buf <- b
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let ivec_append dst (src : ivec) =
  for k = 0 to src.len - 1 do
    ivec_push dst src.buf.(k)
  done

let ivec_array v = Array.sub v.buf 0 v.len

(* Rule [i]'s code; a rule past the table is interpreted. *)
let rule_code codes i = if i < Array.length codes then codes.(i) else Compiled.Interpreted

(* Counts one evaluation of a compiled rule, and a rule that cannot fire
   in the window as skipped. *)
let count_compiled ~fires =
  Telemetry.Metrics.incr m_rule_evals;
  Telemetry.Metrics.incr m_compiled_hit;
  if not fires then Telemetry.Metrics.incr m_compiled_skipped

(* Compiled counterpart of [evaluate_simple]: transition points accrue
   into int-keyed tables of flat buffers, compiled rules run their
   closure chains, and rules the compiler could not handle fall back to
   [transition_points] — feeding the same accumulators, so the resulting
   cache content (and [Cache.add] order, hence result order) is
   bit-identical to the interpreter's. A compiled rule that cannot fire
   in the window ({!Compiled.may_fire}) is counted as evaluated and not
   entered. When the derivation recorder is armed, the program's
   [Derivation.sink] re-encodes each compiled emission as a compact
   record (rule label, fvp, time and the chain's slot bindings) — the
   same record sequence, in the same order, as the interpreted path
   produces. [rules] are the indicator's rules from index [first] on. *)
let evaluate_transitions env (prog : Compiled.program) codes ~ind ~carry ~first
    (rules : Ast.rule list) =
  let intern = Cache.intern env.cache in
  let sink = Compiled.sink prog in
  let inits : (int, ivec) Hashtbl.t = Hashtbl.create 8 in
  let terms : (int, ivec) Hashtbl.t = Hashtbl.create 8 in
  let term_patterns = ref [] in
  let record tbl id t =
    match Hashtbl.find_opt tbl id with
    | Some v -> ivec_push v t
    | None ->
      let v = ivec_make () in
      ivec_push v t;
      Hashtbl.replace tbl id v
  in
  let probe id t =
    match Cache.lookup_id env.cache id with
    | Some spans ->
      Telemetry.Metrics.incr m_cache_hit;
      Interval.mem t spans
    | None ->
      Telemetry.Metrics.incr m_cache_miss;
      false
  in
  let miss () = Telemetry.Metrics.incr m_cache_miss in
  let emit_init id t = record inits id t in
  let emit_term id t = record terms id t in
  let run_compiled i r cr =
    let fires = Compiled.may_fire cr ~from:env.from ~until:env.until in
    count_compiled ~fires;
    if fires then begin
      let emit =
        match Compiled.kind cr with Derivation.Init -> emit_init | Term -> emit_term
      in
      let emit =
        match sink with
        | None -> emit
        | Some sk -> Compiled.recorded cr sk ~label:(fun () -> rule_label ind i r) emit
      in
      Compiled.run_rule cr ~from:env.from ~until:env.until ~probe ~miss ~emit
    end
  in
  List.iteri
    (fun k r ->
      let i = first + k in
      match rule_code codes i with
      | Compiled.Compiled cr -> run_compiled i r cr
      | Compiled.Interpreted -> (
        match Ast.kind_of_rule r with
        | Some (Ast.Initiated { fluent; value; time }) ->
          Telemetry.Metrics.incr m_compiled_miss;
          List.iter
            (fun ((f, v), t) -> record inits (Intern.fvp_of_terms intern f v) t)
            (transition_points env ~label:(rule_label ind i r) ~kind:Derivation.Init r
               ~fluent ~value ~time ~require_ground:true)
        | Some (Ast.Terminated { fluent; value; time }) ->
          Telemetry.Metrics.incr m_compiled_miss;
          let label = rule_label ind i r in
          List.iter
            (fun (((f, v) as fv), t) ->
              if Term.is_ground f && Term.is_ground v then
                record terms (Intern.fvp_of_terms intern f v) t
              else term_patterns := ((fv, t), label) :: !term_patterns)
            (transition_points env ~label ~kind:Derivation.Term r ~fluent ~value ~time
               ~require_ground:false)
        | _ -> ()))
    rules;
  List.iter
    (fun ((f, v), origin) ->
      record inits (Intern.fvp_of_terms intern f v) (env.from - 1);
      if Derivation.recording () then
        Derivation.record_carry ~origin ~fluent:f ~value:v ~time:(env.from - 1))
    carry;
  (* Only an fvp with an initiation can hold, so only those are
     assembled, in fvp order. *)
  let fvps =
    Hashtbl.fold (fun id starts acc -> (Intern.fvp_terms intern id, id, starts) :: acc) inits []
  in
  let fvps =
    match fvps with
    | [] | [ _ ] -> fvps
    | _ -> List.sort (fun ((a : fvp), _, _) (b, _, _) -> compare_fvp a b) fvps
  in
  (* The initiation of a different value of the same fluent terminates
     the current value: each fvp's initiations are grouped by fluent
     once, when there are two fvps or more. *)
  let by_fluent =
    match fvps with
    | [] | [ _ ] -> None
    | _ ->
      let groups = Hashtbl.create 8 in
      Hashtbl.iter
        (fun id starts ->
          let fid = Intern.fvp_fluent_id intern id in
          let members = Option.value ~default:[] (Hashtbl.find_opt groups fid) in
          Hashtbl.replace groups fid ((id, starts) :: members))
        inits;
      Some groups
  in
  List.iter
    (fun ((fluent, value), id, starts) ->
      let stop_buf = ivec_make () in
      (match Hashtbl.find_opt terms id with
      | Some v -> ivec_append stop_buf v
      | None -> ());
      List.iter
        (fun (((pf, pv), t), plabel) ->
          match Unify.unify pf fluent with
          | Some s when Option.is_some (Unify.unify ~subst:s pv value) ->
            if Derivation.recording () then
              Derivation.record_pattern ~rule:plabel ~pattern:(Term.eq pf pv) ~fluent ~value
                ~time:t;
            ivec_push stop_buf t
          | _ -> ())
        !term_patterns;
      Option.iter
        (fun groups ->
          List.iter
            (fun (id', v) -> if id' <> id then ivec_append stop_buf v)
            (Hashtbl.find groups (Intern.fvp_fluent_id intern id)))
        by_fluent;
      let spans =
        Interval.from_point_arrays ~starts:(ivec_array starts) ~stops:(ivec_array stop_buf)
      in
      if not (Interval.is_empty spans) then
        Cache.add_id env.cache ~ind:(Term.indicator fluent) id spans)
    fvps

(* Counts and passes over the leading compiled rules that cannot fire,
   and assembles the transitions from the first rule that may; when no
   rule can fire and nothing carries, nothing is derived and no table is
   made. *)
let rec evaluate_from env prog codes ~ind ~carry i = function
  | _ :: rest as rules -> (
    match rule_code codes i with
    | Compiled.Compiled cr when not (Compiled.may_fire cr ~from:env.from ~until:env.until) ->
      count_compiled ~fires:false;
      evaluate_from env prog codes ~ind ~carry (i + 1) rest
    | _ -> evaluate_transitions env prog codes ~ind ~carry ~first:i rules)
  | [] -> if carry <> [] then evaluate_transitions env prog codes ~ind ~carry ~first:i []

let evaluate_simple_compiled env (prog : Compiled.program) ~ind ~carry (rules : Ast.rule list) =
  evaluate_from env prog (Compiled.rule_codes prog ~ind) ~ind ~carry 0 rules

let evaluate_sd env ~ind (rules : Ast.rule list) =
  let results = ref FvpMap.empty in
  let skipped = ref [] in
  let trace = Derivation.recording () in
  List.iteri
    (fun i (r : Ast.rule) ->
        match Ast.kind_of_rule r with
        | Some (Ast.Holds_for { fluent; value; interval }) -> (
          Telemetry.Metrics.incr m_rule_evals;
          match sd_solutions env r ~trace 1 Subst.empty Imap.empty [] r.body with
          | Result.Error e ->
            (* An ill-formed rule contributes nothing (the definition is
               "unusable in practice", Section 5.2) but does not abort the
               rest of the event description. *)
            skipped := e :: !skipped
          | Ok sols ->
            List.iter
              (fun (s, imap, steps) ->
                let f = Subst.apply s fluent and v = Subst.apply s value in
                match interval with
                | Term.Var iv when Term.is_ground f && Term.is_ground v -> (
                  match Imap.find_opt iv imap with
                  | Some spans when not (Interval.is_empty spans) ->
                    if trace then
                      Derivation.record_derived ~fluent:f ~value:v
                        ~rule:(rule_label ind i r) ~spans:(Interval.to_list spans)
                        ~binds:(resolved_bindings s) ~steps;
                    results :=
                      FvpMap.update (f, v)
                        (fun o ->
                          Some (Interval.union spans (Option.value ~default:Interval.empty o)))
                        !results
                  | _ -> ())
                | _ -> ())
              sols)
        | _ -> ())
    rules;
  FvpMap.iter (fun fv spans -> Cache.add env.cache fv spans) !results;
  Ok (List.rev !skipped)

(* initially(F=V) facts in the event description seed the law of inertia:
   the FVP holds from the very start of the stream. *)
let initial_fvps event_description =
  List.filter_map
    (fun (r : Ast.rule) ->
      match r.head with
      | Term.Compound ("initially", [ fv ]) when r.body = [] -> (
        match Term.as_fvp fv with
        | Some (f, v) when Term.is_ground f && Term.is_ground v -> Some (f, v)
        | _ -> None)
      | _ -> None)
    (Ast.all_rules event_description)

(* Everything evaluation derives from the event description alone,
   computed once per description rather than once per query. Immutable,
   so the buckets of a service share one plan across domains. A cyclic
   description keeps its [Error] here and fails at its first query. *)
type plan = {
  deps : Dependency.t;
  steps : (Dependency.info list, string) Stdlib.result;
      (* the defined indicators in evaluation order, with their rules *)
  initially : fvp list;
  window_insensitive : bool;
}

let plan event_description =
  let deps = Dependency.analyse event_description in
  {
    deps;
    steps =
      Result.map (List.filter_map (Dependency.info deps)) (Dependency.evaluation_order deps);
    initially = initial_fvps event_description;
    window_insensitive = Dependency.window_insensitive event_description;
  }

let analysis p = p.deps
let window_insensitive p = p.window_insensitive

(* Everything [run] needs after seeding the cache; kept as a value so the
   negative-provenance probe ([Diagnosis]) can re-enter evaluation with
   the same environment. *)
type prepared = {
  p_env : env;
  p_deps : Dependency.t;
  p_steps : Dependency.info list;
  p_carry : (fvp * string) list;  (* fvp, origin ("carry" | "initially") *)
  p_compiled : Compiled.program option;
}

let prepare_run ?(carry = []) ?(universe = []) ?input_from ?origin ?compiled ~plan
    ~knowledge ~stream ~from ~until () =
  match plan.steps with
  | Error e -> Result.Error e
  | Ok steps ->
    let origin = Option.value ~default:(fst (Stream.extent stream)) origin in
    (* When evaluating only the step delta of a larger window, [input_from]
       is the true window start: input fluents are clamped against it, not
       against the delta start. *)
    let input_from = Option.value ~default:from input_from in
    let carry =
      (* [initially] declarations only apply when the window reaches back
         to the origin; afterwards the carry list carries their effect
         forward. *)
      List.map (fun fv -> (fv, "carry")) carry
      @
      if from <= origin then List.map (fun fv -> (fv, "initially")) plan.initially else []
    in
    (* A compiled program shares its intern table with the cache, so the
       fvp ids baked into rule closures address cache slots directly. *)
    let cache = Cache.create ?intern:(Option.map Compiled.intern compiled) () in
    (* Input statically determined fluents are available from the start,
       restricted to the window. *)
    List.iter
      (fun (fv, spans) ->
        let spans = Interval.clamp (input_from + 1) Interval.infinity spans in
        if not (Interval.is_empty spans) then begin
          Cache.add cache fv spans;
          if Derivation.recording () then
            Derivation.record_input ~fluent:(fst fv) ~value:(snd fv)
              ~spans:(Interval.to_list spans)
        end)
      (Stream.input_fluents stream);
    let universe =
      lazy
        (let tbl = Hashtbl.create 16 in
         List.iter
           (fun ((f, _) as fv) ->
             let ind = Term.indicator f in
             match Hashtbl.find_opt tbl ind with
             | None -> Hashtbl.replace tbl ind (ref [ fv ])
             | Some r -> r := fv :: !r)
           universe;
         tbl)
    in
    let env = { stream; knowledge; cache; from; until; universe } in
    Ok { p_env = env; p_deps = plan.deps; p_steps = steps; p_carry = carry; p_compiled = compiled }

let evaluate_prepared p =
  let rec evaluate = function
    | [] -> Ok ()
    | (info : Dependency.info) :: rest -> (
      let ind = info.indicator in
      match info.fluent_class with
      | Dependency.Mixed ->
        Result.Error
          (Printf.sprintf "fluent %s/%d mixes simple and statically determined rules" (fst ind)
             (snd ind))
      | Dependency.Simple ->
        let carry_here =
          if p.p_carry = [] then []
          else List.filter (fun ((f, _), _) -> Term.indicator f = ind) p.p_carry
        in
        (* Compiled chains run whether or not the recorder is on: the
           emission sink produces the same compact records as the
           interpreted path, so provenance no longer forces the
           interpreter. *)
        (match p.p_compiled with
        | Some prog -> evaluate_simple_compiled p.p_env prog ~ind ~carry:carry_here info.rules
        | None -> evaluate_simple p.p_env ~ind ~carry:carry_here info.rules);
        evaluate rest
      | Dependency.Statically_determined -> (
        match evaluate_sd p.p_env ~ind info.rules with
        | Result.Error e -> Result.Error e
        | Ok _skipped -> evaluate rest))
  in
  evaluate p.p_steps

let run ?carry ?universe ?input_from ?origin ?compiled ~plan ~knowledge ~stream ~from ~until
    () =
  Result.bind
    (prepare_run ?carry ?universe ?input_from ?origin ?compiled ~plan ~knowledge ~stream
       ~from ~until ())
    (fun p ->
      Result.map (fun () -> Cache.to_result p.p_env.cache) (evaluate_prepared p))

let holds_at result fv t =
  match List.find_opt (fun ((f, v), _) -> Term.equal f (fst fv) && Term.equal v (snd fv)) result with
  | Some (_, spans) -> Interval.mem t spans
  | None -> false

let intervals result fv =
  match List.find_opt (fun ((f, v), _) -> Term.equal f (fst fv) && Term.equal v (snd fv)) result with
  | Some (_, spans) -> spans
  | None -> Interval.empty

let find_fluent result ind =
  List.filter (fun ((f, _), _) -> Term.indicator f = ind) result

let query result pattern =
  match Term.as_fvp pattern with
  | None -> []
  | Some (pf, pv) ->
    List.filter
      (fun ((f, v), _) ->
        match Unify.unify pf f with
        | None -> false
        | Some s -> Option.is_some (Unify.unify ~subst:s pv v))
      result

(* --- negative provenance --- *)

module Diagnosis = struct
  (* A re-evaluation probe over a fully evaluated single-pass environment:
     given a rule, a ground FVP and a time-point, replay the rule's body
     and report either that it derives the FVP there or the first body
     condition that fails (with its grounding under the most advanced
     substitution frontier). Recognition never calls this; it exists for
     the FP/FN attribution pipeline in lib/provenance. *)

  type t = { d_env : env; d_deps : Dependency.t }

  type outcome =
    | Derivable
    | Head_mismatch
    | Failing of { index : int; literal : Term.t; grounded : Term.t }
    | Unsupported of string

  let prepare ~event_description ~knowledge ~stream () =
    (* The probe re-runs recognition; keep its derivations out of any
       live recorder buffer. *)
    let was = Derivation.is_enabled () in
    Derivation.disable ();
    Fun.protect
      ~finally:(fun () -> if was then Derivation.enable ())
      (fun () ->
        let lo, hi = Stream.extent stream in
        match
          prepare_run ~plan:(plan event_description) ~knowledge ~stream ~from:lo ~until:hi
            ()
        with
        | Error e -> Result.Error e
        | Ok p -> (
          match evaluate_prepared p with
          | Error e -> Result.Error e
          | Ok () -> Ok { d_env = p.p_env; d_deps = p.p_deps }))

  let result t = Cache.to_result t.d_env.cache

  let rules_for t ind =
    match Dependency.info t.d_deps ind with
    | None -> []
    | Some info -> List.mapi (fun i r -> (rule_label ind i r, r)) info.rules

  let indicators t =
    List.map (fun (i : Dependency.info) -> i.Dependency.indicator) (Dependency.all t.d_deps)

  (* Frontier walk over a transition-rule body: expand every body literal
     against all current solutions; the first literal with no solution is
     the failing condition. *)
  let transition_at t (r : Ast.rule) ~head:(fluent, value, htime) ~fvp:(tf, tv) ~time =
    match Unify.unify fluent tf with
    | None -> Head_mismatch
    | Some s -> (
      match Unify.unify ~subst:s value tv with
      | None -> Head_mismatch
      | Some s -> (
        match Unify.unify ~subst:s htime (Term.Int time) with
        | None -> Head_mismatch
        | Some s0 ->
          let rec go subs index = function
            | [] -> Derivable
            | lit :: rest -> (
              match List.concat_map (fun s -> literal_solutions t.d_env s lit) subs with
              | [] -> Failing { index; literal = lit; grounded = Subst.apply (List.hd subs) lit }
              | next -> go next (index + 1) rest)
          in
          go [ s0 ] 1 r.Ast.body))

  let sd_output_var = function
    | Term.Compound ("holdsFor", [ _; Term.Var v ])
    | Term.Compound (("union_all" | "intersect_all"), [ _; Term.Var v ])
    | Term.Compound ("relative_complement_all", [ _; _; Term.Var v ])
    | Term.Compound ("intDurGreater", [ _; _; Term.Var v ]) ->
      Some v
    | _ -> None

  (* Diagnose a holdsFor rule at [time]. When some solution's head
     interval covers the point the rule is derivable. Otherwise walk the
     interval dataflow backwards from the head variable: descend through
     constructs whose *input* already lacked the point, and stop at the
     condition where coverage was actually decided — the holdsFor literal
     that failed to hold there, or, for a relative complement whose base
     covered the point, the subtracted operand that wrongly held. *)
  let holds_for_at t (r : Ast.rule) ~head:(fluent, value, ivar) ~fvp:(tf, tv) ~time =
    match Unify.unify fluent tf with
    | None -> Head_mismatch
    | Some s -> (
      match Unify.unify ~subst:s value tv with
      | None -> Head_mismatch
      | Some s0 -> (
        match ivar with
        | Term.Var iv -> (
          match sd_solutions t.d_env r ~trace:false 1 s0 Imap.empty [] r.Ast.body with
          | Error e -> Unsupported e
          | Ok sols -> (
            let covers (_, imap, _) =
              match Imap.find_opt iv imap with
              | Some spans -> Interval.mem time spans
              | None -> false
            in
            if List.exists covers sols then Derivable
            else
              match sols with
              | [] ->
                (* No solution at all: forward walk to the first literal
                   with no branches. *)
                let rec fwd states index = function
                  | [] -> Unsupported "holdsFor body has no solutions"
                  | lit :: rest -> (
                    let next =
                      List.concat_map
                        (fun (s, imap) ->
                          match
                            sd_solutions t.d_env r ~trace:false index s imap [] [ lit ]
                          with
                          | Ok l -> List.map (fun (s', imap', _) -> (s', imap')) l
                          | Error _ -> [])
                        states
                    in
                    match next with
                    | [] ->
                      let g =
                        match states with (s, _) :: _ -> Subst.apply s lit | [] -> lit
                      in
                      Failing { index; literal = lit; grounded = g }
                    | _ -> fwd next (index + 1) rest)
                in
                fwd [ (s0, Imap.empty) ] 1 r.Ast.body
              | (s, imap, _) :: _ ->
                let indexed = List.mapi (fun i lit -> (i + 1, lit)) r.Ast.body in
                let binder v =
                  List.find_opt (fun (_, lit) -> sd_output_var lit = Some v) indexed
                in
                let spans_of v =
                  Option.value ~default:Interval.empty (Imap.find_opt v imap)
                in
                let var_of = function Term.Var v -> Some v | _ -> None in
                let fail index lit =
                  Failing { index; literal = lit; grounded = Subst.apply s lit }
                in
                let rec blame v =
                  match binder v with
                  | None ->
                    Unsupported (Printf.sprintf "interval variable %s has no binder" v)
                  | Some (index, lit) -> (
                    match lit with
                    | Term.Compound ("holdsFor", _) -> fail index lit
                    | Term.Compound ("union_all", [ ops; _ ]) -> (
                      match Term.as_list ops with
                      | Some [ single ] when var_of single <> None ->
                        blame (Option.get (var_of single))
                      | _ -> fail index lit)
                    | Term.Compound ("intersect_all", [ ops; _ ]) -> (
                      match Term.as_list ops with
                      | Some elems -> (
                        match
                          List.find_opt
                            (fun e ->
                              match var_of e with
                              | Some v' -> not (Interval.mem time (spans_of v'))
                              | None -> false)
                            elems
                        with
                        | Some e -> blame (Option.get (var_of e))
                        | None -> fail index lit)
                      | None -> fail index lit)
                    | Term.Compound ("relative_complement_all", [ base; ops; _ ]) -> (
                      match var_of base with
                      | Some bv when not (Interval.mem time (spans_of bv)) -> blame bv
                      | _ -> (
                        match Term.as_list ops with
                        | Some elems -> (
                          match
                            List.find_opt
                              (fun e ->
                                match var_of e with
                                | Some v' -> Interval.mem time (spans_of v')
                                | None -> false)
                              elems
                          with
                          | Some e -> (
                            match binder (Option.get (var_of e)) with
                            | Some (i', l') -> fail i' l'
                            | None -> fail index lit)
                          | None -> fail index lit)
                        | None -> fail index lit))
                    | Term.Compound ("intDurGreater", [ i; _; _ ]) -> (
                      match var_of i with
                      | Some v' when not (Interval.mem time (spans_of v')) -> blame v'
                      | _ -> fail index lit)
                    | _ -> fail index lit)
                in
                blame iv))
        | _ -> Unsupported "head interval is not a variable"))

  let rule_at t ~rule ~fvp ~time =
    match Ast.kind_of_rule rule with
    | Some (Ast.Initiated { fluent; value; time = ht }) ->
      transition_at t rule ~head:(fluent, value, ht) ~fvp ~time
    | Some (Ast.Terminated { fluent; value; time = ht }) ->
      transition_at t rule ~head:(fluent, value, ht) ~fvp ~time
    | Some (Ast.Holds_for { fluent; value; interval }) ->
      holds_for_at t rule ~head:(fluent, value, interval) ~fvp ~time
    | None -> Unsupported "rule head is not an RTEC rule"
end
