(* Long-lived streaming recognition sessions.

   A service owns per-entity-shard ("bucket") evaluation state that
   persists across windows: each bucket holds that shard's slice of the
   input and, from its creation, a [Rtec.Window.Session] that evaluates
   it, so the live path evaluates queries with exactly the code the
   one-shot [Runtime.run] uses — the batch/streaming differential
   guarantees hold by construction.

   Out-of-order input is repaired by bounded revision: after each
   processed query the bucket checkpoints its (persistent, O(1) to
   snapshot) state; a late item whose lateness is within the configured
   horizon rolls the owning bucket back to the newest checkpoint before
   the item's time, or to the pristine state, and replays the
   overlapping windows over the merged stream, which converges to the
   in-order batch result. Later items are counted and dropped.

   Bucket assignment is dynamic, and this router is the repo's one
   entity partitioner (batch [Runtime.run] seeds through it too): items
   are routed by the entity keys they mention, and a cross-bucket item
   (or a late key binding, tracked through subterm mentions) coalesces
   the buckets it connects — checkpoint-by-checkpoint, since every
   bucket processes the same global query grid. An item with no entity
   key makes recognition entity-inseparable, so the service collapses
   to a single bucket. *)

module Session = Rtec.Window.Session

module FvpMap = Map.Make (struct
  type t = Rtec.Engine.fvp

  let compare = Rtec.Engine.compare_fvp
end)

module TermTbl = Hashtbl.Make (struct
  type t = Rtec.Term.t

  let equal = Rtec.Term.equal
  let hash = Rtec.Term.hash
end)

let m_late = Telemetry.Metrics.counter "stream.late_events"
let m_dropped = Telemetry.Metrics.counter "stream.dropped_late"
let m_revisions = Telemetry.Metrics.counter "service.revisions"
let g_active = Telemetry.Metrics.gauge "service.entities.active"
let g_evicted = Telemetry.Metrics.gauge "service.entities.evicted"

(* Stage-latency attribution: [route] brackets ingest (classification +
   bucket routing + stream appends), [evaluate] brackets a whole query
   pass (revision planning, window evaluation, finalisation). The
   decode/emit stages live with the I/O code that owns them. *)
let h_stage_route = Telemetry.Metrics.histogram "service.stage.route_us"
let h_stage_evaluate = Telemetry.Metrics.histogram "service.stage.evaluate_us"

type config = {
  window : int option;
  step : int option;
  jobs : int;
  compile : bool;
  horizon : int;
  ttl : int option;
}

let config ?window ?step ?(jobs = 1) ?(compile = true) ?(horizon = 0) ?ttl () =
  { window; step; jobs; compile; horizon; ttl }

type stats = {
  queries : int;
  events_processed : int;
  buckets : int;
  jobs : int;
  appends : int;
  late_events : int;
  dropped_late : int;
  revisions : int;
  entities_active : int;
  entities_evicted : int;
}

type result = {
  intervals : Rtec.Engine.result Lazy.t;
  watermark : int option;
  stats : stats;
}

type bucket = {
  id : int;
  mutable stream : Rtec.Stream.t;
  session : Session.t;
  mutable checkpoints : (int * Session.state) list;
      (* newest first, one per processed query; once finalised, the
         oldest is the newest checkpoint at or before the revision
         boundary, old enough that no acceptable late item can require
         earlier state *)
  mutable entities : Rtec.Term.t list;
  mutable mentioned : Rtec.Term.t list;  (* the subterms it entered in [mentions] *)
  mutable last_seen : int;
  mutable revise_from : int option;
}

type t = {
  cfg : config;
  event_description : Rtec.Ast.t;
  knowledge : Rtec.Knowledge.t;
  mutable buckets : bucket list;  (* the live buckets, newest (highest id) first *)
  mutable next_id : int;
  by_entity : bucket TermTbl.t;  (* every live entity key, to its bucket *)
  mentions : Rtec.Term.t list TermTbl.t;
      (* a non-key subterm, to one entity key of each live bucket whose
         items mentioned it *)
  mutable collapsed : bool;
  mutable ev_lo : int option;
  mutable ev_hi : int option;  (* event extent of accepted input *)
  mutable lo : int option;  (* grid origin, frozen at the first query *)
  mutable resolved : (Session.params * int * int) option;
      (* every bucket's evaluation parameters and the effective window
         and step, resolved at the first pass rather than by [create] so
         that start-up does not pay for the plan *)
  mutable prev_q : int option;
  mutable processed : int list;
      (* query times processed so far, newest first, trimmed to the
         revisable region — what a rolled-back bucket replays *)
  mutable retired : Rtec.Interval.t FvpMap.t;
  mutable retired_queries : int;
  mutable retired_events : int;
  mutable n_appends : int;
  mutable n_late : int;
  mutable n_dropped : int;
  mutable n_revisions : int;
  mutable n_evicted : int;
  mutable last_jobs : int;
}

(* Ground [initially(F=V)] facts seed every window that reaches the
   stream start, but they belong to no entity component: each shard
   would re-derive them against a different event subset. Such event
   descriptions are evaluated single-bucket. *)
let create ~config ~event_description ~knowledge () =
  {
    cfg = config;
    event_description;
    knowledge;
    buckets = [];
    next_id = 0;
    by_entity = TermTbl.create 64;
    mentions = TermTbl.create 256;
    collapsed = Rtec.Engine.initial_fvps event_description <> [];
    ev_lo = None;
    ev_hi = None;
    lo = None;
    resolved = None;
    prev_q = None;
    processed = [];
    retired = FvpMap.empty;
    retired_queries = 0;
    retired_events = 0;
    n_appends = 0;
    n_late = 0;
    n_dropped = 0;
    n_revisions = 0;
    n_evicted = 0;
    last_jobs = 1;
  }

let watermark t = t.ev_hi

(* --- buckets --- *)

let new_bucket svc =
  let b =
    {
      id = svc.next_id;
      stream = Rtec.Stream.make [];
      session = Session.create ();
      checkpoints = [];
      entities = [];
      mentioned = [];
      last_seen = min_int;
      revise_from = None;
    }
  in
  svc.next_id <- svc.next_id + 1;
  svc.buckets <- b :: svc.buckets;
  b

(* Both lists are newest-first over the same global grid, so equal query
   times line up; a query only one side holds was processed while the
   other bucket did not yet exist — and its state then was pristine, so
   the union at that time is the present side's checkpoint unchanged. *)
let merge_pending pa pb =
  let rec go pa pb acc =
    match (pa, pb) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (qa, ca) :: ta, (qb, cb) :: tb ->
      if qa = qb then go ta tb ((qa, Session.merge ca cb) :: acc)
      else if qa > qb then go ta pb ((qa, ca) :: acc)
      else go pa tb ((qb, cb) :: acc)
  in
  go pa pb []

(* The list without [b], sharing the tail after it. *)
let rec without b = function [] -> [] | x :: rest -> if x == b then rest else x :: without b rest

(* The lower id survives and takes over the other bucket's state, its
   entities and its mentions; the other bucket is gone. *)
let merge_buckets svc a b =
  if a == b then a
  else begin
    let a, b = if a.id <= b.id then (a, b) else (b, a) in
    Session.absorb a.session b.session;
    a.stream <- Rtec.Stream.append a.stream b.stream;
    a.checkpoints <- merge_pending a.checkpoints b.checkpoints;
    a.entities <- b.entities @ a.entities;
    List.iter (fun e -> TermTbl.replace svc.by_entity e a) b.entities;
    a.mentioned <- List.rev_append b.mentioned a.mentioned;
    a.last_seen <- max a.last_seen b.last_seen;
    (a.revise_from <-
       (match (a.revise_from, b.revise_from) with
       | None, x | x, None -> x
       | Some x, Some y -> Some (min x y)));
    svc.buckets <- without b svc.buckets;
    a
  end

(* Folded newest first: each merge absorbs the list's head, so removing
   it from the list costs nothing. *)
let collapse svc =
  svc.collapsed <- true;
  match svc.buckets with
  | [] -> new_bucket svc
  | b :: rest -> List.fold_left (merge_buckets svc) b rest

(* --- dynamic entity routing ---

   Two items can only interact through a rule when their entity
   arguments are joined. An argument becomes an entity key the first
   time it leads an event or input fluent: the RTEC convention puts the
   entity first (velocity(Vessel, ...), proximity(Vessel1, Vessel2)),
   while attribute arguments (areas, stops, numeric readings) never
   lead — so pairwise fluents join both entities and shared locations
   never glue unrelated ones. *)

let first_argument term =
  match term with
  | Rtec.Term.Compound (_, arg :: _) -> (
    match arg with Rtec.Term.Int _ | Rtec.Term.Real _ -> None | _ -> Some arg)
  | _ -> None

let iter_subterms f term =
  let rec walk t =
    (match t with Rtec.Term.Int _ | Rtec.Term.Real _ -> () | _ -> f t);
    match t with Rtec.Term.Compound (_, args) -> List.iter walk args | _ -> ()
  in
  walk term

let add_entity svc b k =
  TermTbl.replace svc.by_entity k b;
  b.entities <- k :: b.entities

(* Record that [b], which holds entity key [k], mentions the non-key
   [st], unless a key of [b] is there already. *)
let add_mention svc b k st =
  let keys = Option.value ~default:[] (TermTbl.find_opt svc.mentions st) in
  let held k' = match TermTbl.find_opt svc.by_entity k' with Some x -> x == b | None -> false in
  if not (List.exists held keys) then begin
    TermTbl.replace svc.mentions st (k :: keys);
    b.mentioned <- st :: b.mentioned
  end

let route svc item =
  let term =
    match item with
    | Rtec.Stream.Event e -> e.term
    | Rtec.Stream.Fluent ((f, v), _) -> Rtec.Term.app "=" [ f; v ]
  in
  let lead =
    match item with
    | Rtec.Stream.Event e -> first_argument e.term
    | Rtec.Stream.Fluent ((f, _), _) -> first_argument f
  in
  (* A leading argument that is not a live key becomes one. *)
  let fresh = match lead with Some k when not (TermTbl.mem svc.by_entity k) -> lead | _ -> None in
  let b =
    if svc.collapsed then collapse svc
    else begin
      (* Buckets whose items merely mentioned a fresh key become
         connected to it retroactively. *)
      let mention_targets =
        match fresh with
        | None -> []
        | Some k -> (
          match TermTbl.find_opt svc.mentions k with
          | None -> []
          | Some keys ->
            TermTbl.remove svc.mentions k;
            List.filter_map (TermTbl.find_opt svc.by_entity) keys)
      in
      let entity_targets = ref [] in
      iter_subterms
        (fun st ->
          match TermTbl.find_opt svc.by_entity st with
          | Some b -> entity_targets := b :: !entity_targets
          | None -> ())
        term;
      if fresh = None && !entity_targets = [] then collapse svc
      else
        (* Each bucket once: a bucket merged away must not be merged
           again. *)
        match
          List.sort_uniq (fun a b -> Int.compare a.id b.id) (mention_targets @ !entity_targets)
        with
        | [] -> new_bucket svc
        | b :: rest -> List.fold_left (merge_buckets svc) b rest
    end
  in
  Option.iter (add_entity svc b) fresh;
  if not svc.collapsed then begin
    let k = List.hd b.entities in
    iter_subterms (fun st -> if not (TermTbl.mem svc.by_entity st) then add_mention svc b k st) term
  end;
  b

(* --- ingestion --- *)

let ingest_batch svc items =
  (* Validated whole before any item is routed: routing mutates keys,
     buckets, the event extent and the late counters, so a batch
     rejected halfway would leave the service corrupted. *)
  Rtec.Stream.check_items ~ctx:"Service.ingest" items;
  List.iter
    (fun item ->
      let t = Rtec.Stream.item_time item in
      let late, accept =
        match svc.prev_q with
        | Some pq when t <= pq ->
          let beyond =
            pq - t >= svc.cfg.horizon
            || (match svc.lo with Some lo -> t < lo | None -> false)
          in
          (true, not beyond)
        | _ -> (false, true)
      in
      if late then begin
        svc.n_late <- svc.n_late + 1;
        Telemetry.Metrics.incr m_late
      end;
      if not accept then begin
        svc.n_dropped <- svc.n_dropped + 1;
        Telemetry.Metrics.incr m_dropped
      end
      else begin
        (match item with
        | Rtec.Stream.Event e ->
          svc.ev_lo <- Some (match svc.ev_lo with None -> e.time | Some x -> min x e.time);
          svc.ev_hi <- Some (match svc.ev_hi with None -> e.time | Some x -> max x e.time)
        | Rtec.Stream.Fluent _ -> ());
        let b = route svc item in
        (b.stream <-
           match item with
           | Rtec.Stream.Event e -> Rtec.Stream.append_items b.stream [| e |]
           | Rtec.Stream.Fluent (fv, spans) ->
             Rtec.Stream.append_items b.stream ~input_fluents:[ (fv, spans) ] [||]);
        svc.n_appends <- svc.n_appends + 1;
        if t <> max_int then b.last_seen <- max b.last_seen t;
        if late then
          b.revise_from <-
            Some (match b.revise_from with None -> t | Some x -> min x t)
      end)
    items

(* The serve loop writes the [ingest] flight records, one per burst of
   lines rather than one per call. *)
let ingest svc items = Telemetry.Metrics.time_us h_stage_route (fun () -> ingest_batch svc items)

(* --- query scheduling and evaluation --- *)

(* The evaluation parameters every bucket shares, resolved once, at the
   first pass: that is when the plan is built, so start-up does not pay
   for it. *)
let resolve svc extent =
  match svc.resolved with
  | Some r -> Result.Ok r
  | None -> (
    let window =
      match (svc.cfg.window, extent) with
      | Some w, _ -> Some w
      | None, Some (lo, hi) -> Some (hi - lo + 1)  (* the batch default: the whole extent *)
      | None, None -> None
    in
    match window with
    | None -> Result.Error "tick requires an explicit window"
    | Some w ->
      let s = Option.value ~default:w svc.cfg.step in
      Result.map
        (fun params ->
          svc.resolved <- Some (params, w, s);
          (params, w, s))
        (Session.params ~compile:svc.cfg.compile ~window:w ~step:s
           ~plan:(Rtec.Engine.plan svc.event_description) ~knowledge:svc.knowledge ()))

(* Roll an out-of-date bucket back to its newest checkpoint strictly
   before the earliest late item [t], or to the pristine state if it has
   none, and return [t] with the query times to replay: every globally
   processed query at or after [t] (the bucket's checkpoints cover
   exactly the processed queries before [t], and a bucket created after
   a query was processed was pristine then, so replaying it on the
   restored state derives what the batch shard would). The acceptance
   bound guarantees a rollback target is retained: an accepted item is
   newer than [prev_q - horizon], and finalisation keeps a checkpoint at
   least that old. *)
let plan_revision svc b =
  match b.revise_from with
  | None -> None
  | Some t ->
    b.revise_from <- None;
    svc.n_revisions <- svc.n_revisions + 1;
    Telemetry.Metrics.incr m_revisions;
    let rec before = function (q, _) :: rest when q >= t -> before rest | cps -> cps in
    b.checkpoints <- before b.checkpoints;
    Session.restore b.session
      (match b.checkpoints with (_, cp) :: _ -> cp | [] -> Session.pristine);
    Some (t, List.filter (fun q -> q >= t) (List.rev svc.processed))

let run_bucket svc ~resolved:(params, w, s) ~lo (b, worklist) =
  Telemetry.Trace.with_span "window.run"
    ~args:
      [
        ("window", Telemetry.Trace.Int w);
        ("step", Telemetry.Trace.Int s);
        ("delta_ok", Telemetry.Trace.Bool (Session.delta_ok params));
      ]
    (fun () ->
      let rec loop = function
        | [] -> Result.Ok ()
        | q :: rest -> (
          match Session.process params b.session ~stream:b.stream ~lo q with
          | Error e -> Result.Error e
          | Ok () ->
            if svc.cfg.horizon > 0 then
              b.checkpoints <- (q, Session.save b.session) :: b.checkpoints;
            loop rest)
      in
      loop worklist)

let retire svc b =
  List.iter
    (fun (fv, spans) ->
      svc.retired <-
        FvpMap.update fv
          (function None -> Some spans | Some prev -> Some (Rtec.Interval.union prev spans))
          svc.retired)
    (Session.result b.session);
  let st : Rtec.Window.stats = Session.stats b.session in
  svc.retired_queries <- svc.retired_queries + st.queries;
  svc.retired_events <- svc.retired_events + st.events_processed;
  (* Its entities are forgotten, and so are the mentions that only its
     keys held. *)
  List.iter (TermTbl.remove svc.by_entity) b.entities;
  List.iter
    (fun st ->
      match TermTbl.find_opt svc.mentions st with
      | None -> ()
      | Some keys -> (
        match List.filter (TermTbl.mem svc.by_entity) keys with
        | [] -> TermTbl.remove svc.mentions st
        | keys -> TermTbl.replace svc.mentions st keys))
    b.mentioned;
  svc.n_evicted <- svc.n_evicted + List.length b.entities

let finalise_and_evict svc ~w ~now =
  (match svc.prev_q with
  | Some pq when svc.cfg.horizon > 0 ->
    let boundary = pq - svc.cfg.horizon in
    (* No acceptable late item can be older than [boundary], so queries
       at or before it are never replayed. *)
    svc.processed <- List.filter (fun q -> q > boundary) svc.processed;
    (* Each bucket keeps the checkpoints after the boundary and the
       newest at or before it, its floor. *)
    let rec finalise = function
      | ((q, _) as cp) :: rest when q > boundary -> cp :: finalise rest
      | floor :: _ -> [ floor ]
      | [] -> []
    in
    List.iter
      (fun b ->
        b.checkpoints <- finalise b.checkpoints;
        (* Trim finalised history once at least a window's worth is
           droppable. The session refreshes its compiled program onto
           the retained suffix, and compiles afresh only once the
           program's intern table has doubled since its last compile,
           which keeps the table bounded by the retained stream. *)
        match List.find_opt (fun (q, _) -> q <= boundary) b.checkpoints with
        | Some (fq, _) when Rtec.Stream.size b.stream > 0 ->
          let keep_from = fq - w + 2 in
          if fst (Rtec.Stream.extent b.stream) < keep_from - w then begin
            b.stream <- Rtec.Stream.drop_before b.stream keep_from;
            Session.trimmed b.session
          end
        | _ -> ())
      svc.buckets
  | _ -> ());
  (match (svc.cfg.ttl, now) with
  | Some ttl, Some now when not svc.collapsed ->
    let ttl_eff = max ttl w in
    let retired = ref 0 and evicted = svc.n_evicted in
    svc.buckets <-
      List.filter
        (fun b ->
          let idle = Session.prev_q b.session <> None && now - b.last_seen > ttl_eff in
          if idle then begin
            retire svc b;
            incr retired
          end;
          not idle)
        svc.buckets;
    (* One record per pass, not per bucket: a churning fleet retires
       buckets at the rate entities arrive. *)
    if !retired > 0 then
      Telemetry.Flight.record Evict ~a:!retired ~b:(svc.n_evicted - evicted) ~c:now ()
  | _ -> ());
  Telemetry.Metrics.set g_active (float_of_int (TermTbl.length svc.by_entity));
  Telemetry.Metrics.set g_evicted (float_of_int svc.n_evicted)

(* The per-tick result is captured in O(1) — the retired map and each
   live session's accumulated map are persistent values — and merged
   only if the caller forces it, so ticks whose intervals are discarded
   (--emit final serving, watermark-driven ticking) never pay the
   amalgamation over an ever-growing history. *)
let capture_intervals svc =
  let seqs = List.map (fun b -> Session.result_seq b.session) svc.buckets in
  let retired = svc.retired in
  lazy
    (let merged =
       List.fold_left
         (fun acc seq ->
           Seq.fold_left
             (fun acc (fv, spans) ->
               FvpMap.update fv
                 (function
                   | None -> Some spans
                   | Some prev -> Some (Rtec.Interval.union prev spans))
                 acc)
             acc seq)
         retired seqs
     in
     FvpMap.fold (fun fv spans acc -> (fv, spans) :: acc) merged [])

let stats svc =
  let queries, events =
    List.fold_left
      (fun (q, e) b ->
        let st : Rtec.Window.stats = Session.stats b.session in
        (q + st.queries, e + st.events_processed))
      (svc.retired_queries, svc.retired_events)
      svc.buckets
  in
  {
    queries;
    events_processed = events;
    buckets = List.length svc.buckets;
    jobs = svc.last_jobs;
    appends = svc.n_appends;
    late_events = svc.n_late;
    dropped_late = svc.n_dropped;
    revisions = svc.n_revisions;
    entities_active = TermTbl.length svc.by_entity;
    entities_evicted = svc.n_evicted;
  }

let process_pass_inner svc ~resolved ~now qs =
  (if qs <> [] && svc.lo = None then svc.lo <- Some (Option.value ~default:0 svc.ev_lo));
  let lo = Option.value ~default:0 svc.lo in
  let revised = ref 0 and earliest = ref max_int and replayed = ref 0 in
  let work =
    List.filter_map
      (fun b ->
        let replays =
          match plan_revision svc b with
          | None -> []
          | Some (t, replays) ->
            incr revised;
            earliest := min !earliest t;
            replayed := !replayed + List.length replays;
            replays
        in
        let worklist = replays @ qs in
        if worklist = [] then None else Some (b, worklist))
      (List.rev svc.buckets)
  in
  if !revised > 0 then Telemetry.Flight.record Revision ~a:!revised ~b:!earliest ~c:!replayed ();
  let work = Array.of_list work in
  let n = Array.length work in
  let outcome =
    if n = 0 then Result.Ok ()
    else begin
      (* [jobs] bounds the fan-out; domains beyond the host's cores
         never help in OCaml 5 (every minor collection synchronises all
         domains), so surplus buckets share the granted domains. *)
      let effective_jobs = min svc.cfg.jobs (Domain.recommended_domain_count ()) in
      let use_pool = n > 1 && effective_jobs > 1 in
      let jobs = if use_pool then min effective_jobs n else 1 in
      svc.last_jobs <- jobs;
      let outcomes =
        if use_pool then
          Pool.map ~jobs
            (fun i ((b, _) as wb) ->
              Telemetry.Trace.with_span "runtime.shard"
                ~args:
                  [
                    ("shard", Telemetry.Trace.Int i);
                    ("events", Telemetry.Trace.Int (Rtec.Stream.size b.stream));
                  ]
                (fun () -> run_bucket svc ~resolved ~lo wb))
            work
        else Array.map (run_bucket svc ~resolved ~lo) work
      in
      (* The lowest-numbered bucket's error wins, deterministically. *)
      let rec first_error i =
        if i >= Array.length outcomes then Result.Ok ()
        else
          match outcomes.(i) with Result.Error e -> Result.Error e | Ok () -> first_error (i + 1)
      in
      first_error 0
    end
  in
  match outcome with
  | Result.Error e -> Result.Error e
  | Ok () ->
    (match List.rev qs with
    | last :: _ ->
      svc.prev_q <- Some last;
      if svc.cfg.horizon > 0 then svc.processed <- List.rev_append qs svc.processed
    | [] -> ());
    let _, w, _ = resolved in
    finalise_and_evict svc ~w ~now;
    if Rtec.Derivation.is_enabled () then Rtec.Derivation.publish_metrics ();
    Ok { intervals = capture_intervals svc; watermark = svc.ev_hi; stats = stats svc }

let process_pass svc ~resolved ~now qs =
  let r =
    Telemetry.Metrics.time_us h_stage_evaluate (fun () -> process_pass_inner svc ~resolved ~now qs)
  in
  (match r with
  | Ok res ->
    Telemetry.Flight.record Tick
      ~a:(Option.value ~default:(-1) now)
      ~b:(List.length qs) ~c:res.stats.buckets ()
  | Error _ -> ());
  r

(* The unprocessed grid queries up to and including [until]. The grid is
   anchored at the (frozen) origin and never revisits a processed query;
   a drain's off-grid final query is simply skipped over. *)
let grid_until svc ~w ~s until =
  let lo =
    Option.value ~default:0 (match svc.lo with Some _ as l -> l | None -> svc.ev_lo)
  in
  let first = lo + w - 1 in
  let start =
    match svc.prev_q with
    | Some pq when pq >= first -> first + ((((pq - first) / s) + 1) * s)
    | _ -> first
  in
  let rec gen g acc = if g > until then List.rev acc else gen (g + s) (g :: acc) in
  gen start []

let tick svc ~now =
  match resolve svc None with
  | Result.Error e -> Result.Error e
  | Ok ((_, w, s) as resolved) ->
    process_pass svc ~resolved ~now:(Some now) (grid_until svc ~w ~s now)

let drain svc =
  let lo = Option.value ~default:0 svc.ev_lo in
  let hi = Option.value ~default:0 svc.ev_hi in
  match resolve svc (Some (lo, hi)) with
  | Result.Error e -> Result.Error e
  | Ok ((_, w, s) as resolved) ->
    (* The batch grid: every step until the end of the stream, with a
       final query exactly at the end. *)
    let qs = grid_until svc ~w ~s (hi - 1) in
    let qs =
      match svc.prev_q with Some pq when pq >= hi -> qs | _ -> qs @ [ hi ]
    in
    process_pass svc ~resolved ~now:(Some hi) qs

(* --- batch seeding (the Runtime.run wrapper) --- *)

(* The whole stream as one bucket: no routing, so a later ingest joins
   it too (the service behaves as collapsed from here on). *)
let seed_single svc stream =
  let b = new_bucket svc in
  b.stream <- stream;
  if Rtec.Stream.size stream > 0 then begin
    let lo, hi = Rtec.Stream.extent stream in
    svc.ev_lo <- Some lo;
    svc.ev_hi <- Some hi;
    b.last_seen <- hi
  end;
  svc.collapsed <- true

(* Greedy longest-processing-time grouping: components largest first by
   event count (stable, so ties keep creation order), each merged onto
   the least-loaded group (ties to the lowest index). Fewer, larger
   buckets than components keep the per-query engine overhead down. *)
let group_buckets svc ~groups =
  let load = Array.make groups 0 and slot = Array.make groups None in
  let components =
    List.stable_sort
      (fun a b -> Int.compare (Rtec.Stream.size b.stream) (Rtec.Stream.size a.stream))
      (List.rev svc.buckets)
  in
  (* The groups replace the components as the live list, so no merge
     has to search it. *)
  svc.buckets <- [];
  List.iter
    (fun b ->
      let best = ref 0 in
      for k = 1 to groups - 1 do
        if load.(k) < load.(!best) then best := k
      done;
      load.(!best) <- load.(!best) + Rtec.Stream.size b.stream;
      slot.(!best) <-
        Some (match slot.(!best) with None -> b | Some g -> merge_buckets svc g b))
    components;
  svc.buckets <-
    List.sort (fun a b -> Int.compare b.id a.id) (List.filter_map Fun.id (Array.to_list slot))

let seed svc ~groups stream =
  let empty = Rtec.Stream.size stream = 0 && Rtec.Stream.input_fluents stream = [] in
  if groups <= 1 || svc.collapsed || empty then seed_single svc stream
  else begin
    let events = List.map (fun e -> Rtec.Stream.Event e) (Rtec.Stream.events stream) in
    let fluents =
      List.map (fun (fv, spans) -> Rtec.Stream.Fluent (fv, spans)) (Rtec.Stream.input_fluents stream)
    in
    ingest svc (events @ fluents);
    group_buckets svc ~groups
  end
