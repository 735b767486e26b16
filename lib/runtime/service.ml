(* Long-lived streaming recognition sessions.

   A service owns per-entity-shard ("bucket") evaluation state that
   persists across windows: each bucket wraps a [Rtec.Window.Session]
   over that shard's slice of the input, so the live path evaluates
   queries with exactly the code the one-shot [Runtime.run] uses — the
   batch/streaming differential guarantees hold by construction.

   Out-of-order input is repaired by bounded revision: after each
   processed query the bucket checkpoints its (persistent, O(1) to
   snapshot) state; a late item whose lateness is within the configured
   horizon rolls the owning bucket back to the newest checkpoint before
   the item's time and replays the overlapping windows over the merged
   stream, which converges to the in-order batch result. Later items
   are counted and dropped.

   Bucket assignment is dynamic and mirrors [Stream.partition]'s
   entity-connected components incrementally: an argument becomes an
   entity key the first time it leads an event or input fluent, items
   are routed by the keys they mention, and a cross-bucket item (or a
   late key binding, tracked through subterm mentions) coalesces the
   buckets it connects — checkpoint-by-checkpoint, since every bucket
   processes the same global query grid. An item with no entity key
   makes recognition entity-inseparable, so the service collapses to a
   single bucket, exactly like the batch partition's fallback. *)

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
  mutable session : Session.t option;
  mutable initial : Session.checkpoint option;
      (* pristine state, the rollback target for revisions older than
         every retained checkpoint of a young bucket *)
  mutable pending : (int * Session.checkpoint) list;  (* newest first *)
  mutable floor : (int * Session.checkpoint) option;
      (* the newest finalised checkpoint: old enough that no acceptable
         late item can require earlier state *)
  mutable entities : Rtec.Term.t list;
  mutable last_seen : int;
  mutable revise_from : int option;
  mutable alive : bool;
  mutable merged_into : bucket option;
  (* Reusable ingest scratch: routed items land here (amortised array
     pushes, no per-item allocation) and one [Stream.append_items] per
     touched bucket flushes them at the end of the ingest call. *)
  mutable scr_events : Rtec.Stream.event array;
  mutable scr_n : int;
  mutable scr_fluents : ((Rtec.Term.t * Rtec.Term.t) * Rtec.Interval.t) list;
      (* reversed arrival order; input fluents are rare *)
  mutable scr_touched : bool;
}

type t = {
  cfg : config;
  event_description : Rtec.Ast.t;
  knowledge : Rtec.Knowledge.t;
  pool_always : bool;
      (* bracket multi-bucket passes in the worker pool even at fan-out
         1 — the batch wrapper's forced-shards telemetry semantics *)
  mutable buckets : bucket list;  (* most recent first *)
  mutable next_id : int;
  by_entity : bucket TermTbl.t;
  keys : unit TermTbl.t;
  mentions : (int, bucket) Hashtbl.t TermTbl.t;
  mutable collapsed : bool;
  mutable single : bucket option;  (* the one bucket of collapsed mode *)
  mutable ev_lo : int option;
  mutable ev_hi : int option;  (* event extent of accepted input *)
  mutable lo : int option;  (* grid origin, frozen at the first query *)
  mutable resolved : (int * int) option;  (* effective (window, step) *)
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
  mutable n_active : int;
  mutable n_evicted : int;
  mutable last_jobs : int;
}

(* Ground [initially(F=V)] facts seed every window that reaches the
   stream start, but they belong to no entity component: each shard
   would re-derive them against a different event subset. Such event
   descriptions are evaluated single-bucket. *)
let has_ground_initially event_description =
  List.exists
    (fun (r : Rtec.Ast.rule) ->
      r.body = []
      &&
      match r.head with
      | Rtec.Term.Compound ("initially", [ fv ]) -> Rtec.Term.is_ground fv
      | _ -> false)
    (Rtec.Ast.all_rules event_description)

let create ?(pool_always = false) ~config ~event_description ~knowledge () =
  {
    cfg = config;
    event_description;
    knowledge;
    pool_always;
    buckets = [];
    next_id = 0;
    by_entity = TermTbl.create 64;
    keys = TermTbl.create 64;
    mentions = TermTbl.create 256;
    collapsed = has_ground_initially event_description;
    single = None;
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
    n_active = 0;
    n_evicted = 0;
    last_jobs = 1;
  }

let watermark t = t.ev_hi

(* --- buckets --- *)

let rec resolve_bucket b =
  match b.merged_into with
  | None -> b
  | Some b' ->
    let r = resolve_bucket b' in
    if r != b' then b.merged_into <- Some r;
    r

let new_bucket svc =
  let b =
    {
      id = svc.next_id;
      stream = Rtec.Stream.make [];
      session = None;
      initial = None;
      pending = [];
      floor = None;
      entities = [];
      last_seen = min_int;
      revise_from = None;
      alive = true;
      merged_into = None;
      scr_events = [||];
      scr_n = 0;
      scr_fluents = [];
      scr_touched = false;
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
      if qa = qb then go ta tb ((qa, Session.merge_checkpoint ca cb) :: acc)
      else if qa > qb then go ta pb ((qa, ca) :: acc)
      else go pa tb ((qb, cb) :: acc)
  in
  go pa pb []

let merge_buckets svc a b =
  let a = resolve_bucket a and b = resolve_bucket b in
  if a == b then a
  else begin
    let a, b = if a.id <= b.id then (a, b) else (b, a) in
    (match (a.session, b.session) with
    | Some sa, Some sb -> Session.absorb sa sb
    | None, Some _ ->
      a.session <- b.session;
      a.initial <- b.initial
    | _, None -> ());
    a.stream <- Rtec.Stream.append a.stream b.stream;
    a.pending <- merge_pending a.pending b.pending;
    (a.floor <-
       (match (a.floor, b.floor) with
       | None, x | x, None -> x
       | Some (qa, ca), Some (qb, cb) ->
         if qa = qb then Some (qa, Session.merge_checkpoint ca cb)
         else if qa < qb then a.floor
         else b.floor));
    a.entities <- b.entities @ a.entities;
    List.iter (fun e -> TermTbl.replace svc.by_entity e a) b.entities;
    a.last_seen <- max a.last_seen b.last_seen;
    (a.revise_from <-
       (match (a.revise_from, b.revise_from) with
       | None, x | x, None -> x
       | Some x, Some y -> Some (min x y)));
    b.alive <- false;
    b.merged_into <- Some a;
    a
  end

let alive_buckets svc =
  List.sort
    (fun a b -> Int.compare a.id b.id)
    (List.filter (fun b -> b.alive) svc.buckets)

let collapse svc =
  svc.collapsed <- true;
  match svc.single with
  | Some b when b.alive -> b
  | _ ->
    let b =
      match alive_buckets svc with
      | [] -> new_bucket svc
      | b :: rest -> List.fold_left (merge_buckets svc) b rest
    in
    svc.single <- Some b;
    b

(* --- dynamic entity routing (mirrors Stream.partition's conventions) --- *)

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

let note_entity svc b e =
  match TermTbl.find_opt svc.by_entity e with
  | Some owner when (resolve_bucket owner).alive -> ()  (* owner was merged into b *)
  | _ ->
    TermTbl.replace svc.by_entity e b;
    b.entities <- e :: b.entities;
    svc.n_active <- svc.n_active + 1

let route svc item =
  if svc.collapsed then collapse svc
  else begin
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
    (* A first appearance as a leading argument turns a term into an
       entity key; buckets whose items merely mentioned it become
       connected to it retroactively. *)
    let mention_targets =
      match lead with
      | Some k when not (TermTbl.mem svc.keys k) ->
        TermTbl.replace svc.keys k ();
        (match TermTbl.find_opt svc.mentions k with
        | None -> []
        | Some tbl ->
          Hashtbl.fold
            (fun _ b acc ->
              let b = resolve_bucket b in
              if b.alive then b :: acc else acc)
            tbl [])
      | _ -> []
    in
    let item_entities = ref [] and entity_targets = ref [] in
    iter_subterms
      (fun st ->
        if TermTbl.mem svc.keys st then begin
          item_entities := st :: !item_entities;
          match TermTbl.find_opt svc.by_entity st with
          | Some b ->
            let b = resolve_bucket b in
            if b.alive then entity_targets := b :: !entity_targets
          | None -> ()
        end)
      term;
    if !item_entities = [] then collapse svc
    else begin
      let b =
        match mention_targets @ !entity_targets with
        | [] -> new_bucket svc
        | b :: rest -> List.fold_left (merge_buckets svc) b rest
      in
      List.iter (note_entity svc b) !item_entities;
      iter_subterms
        (fun st ->
          if not (TermTbl.mem svc.keys st) then begin
            let tbl =
              match TermTbl.find_opt svc.mentions st with
              | Some tbl -> tbl
              | None ->
                let tbl = Hashtbl.create 4 in
                TermTbl.replace svc.mentions st tbl;
                tbl
            in
            Hashtbl.replace tbl b.id b
          end)
        term;
      b
    end
  end

(* --- ingestion --- *)

let push_scratch touched b item =
  if not b.scr_touched then begin
    b.scr_touched <- true;
    touched := b :: !touched
  end;
  match item with
  | Rtec.Stream.Event e ->
    if b.scr_n = Array.length b.scr_events then begin
      let grown = Array.make (max 16 (2 * b.scr_n)) e in
      Array.blit b.scr_events 0 grown 0 b.scr_n;
      b.scr_events <- grown
    end;
    b.scr_events.(b.scr_n) <- e;
    b.scr_n <- b.scr_n + 1
  | Rtec.Stream.Fluent (fv, spans) -> b.scr_fluents <- (fv, spans) :: b.scr_fluents

let ingest_batch svc items =
  let touched = ref [] in
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
        push_scratch touched b item;
        if t <> max_int then b.last_seen <- max b.last_seen t;
        if late then
          b.revise_from <-
            Some (match b.revise_from with None -> t | Some x -> min x t)
      end)
    items;
  (* One stream append per touched bucket, in first-touch order; buckets
     that merged while the batch was being routed flush into the
     surviving bucket, their scratches concatenated in first-touch
     order. *)
  let grouped = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun b ->
      let r = resolve_bucket b in
      match Hashtbl.find_opt grouped r.id with
      | Some parts -> parts := b :: !parts
      | None ->
        let parts = ref [ b ] in
        Hashtbl.replace grouped r.id parts;
        order := (r, parts) :: !order)
    (List.rev !touched);
  List.iter
    (fun (r, parts) ->
      let parts = List.rev !parts in
      let tail =
        match parts with
        | [ b ] -> Array.sub b.scr_events 0 b.scr_n
        | _ -> (
          match List.find_opt (fun b -> b.scr_n > 0) parts with
          | None -> [||]
          | Some b0 ->
            let total = List.fold_left (fun acc b -> acc + b.scr_n) 0 parts in
            let out = Array.make total b0.scr_events.(0) in
            let off = ref 0 in
            List.iter
              (fun b ->
                Array.blit b.scr_events 0 out !off b.scr_n;
                off := !off + b.scr_n)
              parts;
            out)
      in
      let input_fluents =
        List.concat_map (fun b -> List.rev b.scr_fluents) parts
      in
      List.iter
        (fun b ->
          b.scr_n <- 0;
          b.scr_fluents <- [];
          b.scr_touched <- false)
        parts;
      r.stream <- Rtec.Stream.append_items r.stream ~input_fluents tail;
      svc.n_appends <- svc.n_appends + 1)
    (List.rev !order)

let ingest svc items =
  let late0 = svc.n_late and dropped0 = svc.n_dropped in
  Telemetry.Metrics.time_us h_stage_route (fun () -> ingest_batch svc items);
  if Telemetry.Flight.is_enabled () then
    Telemetry.Flight.record Ingest ~a:(List.length items)
      ~b:(svc.n_late - late0) ~c:(svc.n_dropped - dropped0) ()

(* --- query scheduling and evaluation --- *)

let resolve_ws svc hi_opt =
  match svc.resolved with
  | Some ws -> Result.Ok ws
  | None -> (
    let check (w, s) =
      if w <= 0 || s <= 0 then Result.Error "window and step must be positive"
      else begin
        svc.resolved <- Some (w, s);
        Ok (w, s)
      end
    in
    match (svc.cfg.window, hi_opt) with
    | Some w, _ -> check (w, Option.value ~default:w svc.cfg.step)
    | None, Some (lo, hi) ->
      (* The batch default: one window spanning the whole extent. *)
      let w = hi - lo + 1 in
      check (w, Option.value ~default:w svc.cfg.step)
    | None, None -> Error "tick requires an explicit window")

let ensure_session svc ~w ~s b =
  match b.session with
  | Some session ->
    if Session.stream session != b.stream then Session.set_stream session b.stream;
    Result.Ok session
  | None -> (
    match
      Session.create ~compile:svc.cfg.compile ~window:w ~step:s
        ~event_description:svc.event_description ~knowledge:svc.knowledge ~stream:b.stream
        ()
    with
    | Error e -> Result.Error e
    | Ok session ->
      b.session <- Some session;
      b.initial <- Some (Session.save session);
      Ok session)

(* Roll an out-of-date bucket back to the newest checkpoint strictly
   before the earliest late item [t] and return the query times to
   replay: every globally processed query at or after [t] (the bucket's
   own checkpoints cover exactly the processed queries before [t], and a
   bucket created after a query was processed was pristine then, so
   replaying it on the restored state derives what the batch shard
   would). The acceptance bound guarantees a rollback target is
   retained: an accepted item is newer than [prev_q - horizon], and the
   floor is at least that old. *)
let plan_revision svc b =
  match b.revise_from with
  | None -> []
  | Some t ->
    b.revise_from <- None;
    svc.n_revisions <- svc.n_revisions + 1;
    Telemetry.Metrics.incr m_revisions;
    let keep = List.filter (fun (q, _) -> q < t) b.pending in
    (match keep with
    | (_, cp) :: _ ->
      b.pending <- keep;
      Option.iter (fun s -> Session.restore s cp) b.session
    | [] -> (
      b.pending <- [];
      match b.floor with
      | Some (_, cp) -> Option.iter (fun s -> Session.restore s cp) b.session
      | None -> (
        (* never checkpointed below [t]: the bucket is young — its state
           before its first processed query was pristine *)
        match (b.session, b.initial) with
        | Some s, Some cp -> Session.restore s cp
        | _ -> ())));
    let replays = List.filter (fun q -> q >= t) (List.rev svc.processed) in
    Telemetry.Flight.record Revision ~a:b.id ~b:t ~c:(List.length replays) ();
    replays

let run_bucket svc ~w ~s ~lo (b, worklist) =
  match ensure_session svc ~w ~s b with
  | Result.Error e -> Result.Error e
  | Ok session ->
    Telemetry.Trace.with_span "window.run"
      ~args:
        [
          ("window", Telemetry.Trace.Int w);
          ("step", Telemetry.Trace.Int s);
          ("delta_ok", Telemetry.Trace.Bool (Session.delta_ok session));
        ]
      (fun () ->
        let rec loop = function
          | [] -> Result.Ok ()
          | q :: rest -> (
            match Session.process session ~lo q with
            | Error e -> Result.Error e
            | Ok () ->
              if svc.cfg.horizon > 0 then
                b.pending <- (q, Session.save session) :: b.pending;
              loop rest)
        in
        loop worklist)

let retire svc b =
  (match b.session with
  | None -> ()
  | Some s ->
    List.iter
      (fun (fv, spans) ->
        svc.retired <-
          FvpMap.update fv
            (function
              | None -> Some spans
              | Some prev -> Some (Rtec.Interval.union prev spans))
            svc.retired)
      (Session.result s);
    let st : Rtec.Window.stats = Session.stats s in
    svc.retired_queries <- svc.retired_queries + st.queries;
    svc.retired_events <- svc.retired_events + st.events_processed);
  b.alive <- false;
  let n = List.length b.entities in
  svc.n_active <- svc.n_active - n;
  svc.n_evicted <- svc.n_evicted + n;
  Telemetry.Flight.record Evict ~a:b.id ~b:n ~c:b.last_seen ()

let finalise_and_evict svc ~w ~now =
  (match svc.prev_q with
  | Some pq when svc.cfg.horizon > 0 ->
    let boundary = pq - svc.cfg.horizon in
    (* No acceptable late item can be older than [boundary], so queries
       at or before it are never replayed. *)
    svc.processed <- List.filter (fun q -> q > boundary) svc.processed;
    List.iter
      (fun b ->
        if b.alive then begin
          let rec go kept = function
            | ((q, _) as e) :: rest when q > boundary -> go (e :: kept) rest
            | (q, cp) :: _ ->
              b.floor <- Some (q, cp);
              b.pending <- List.rev kept
            | [] -> b.pending <- List.rev kept
          in
          go [] b.pending;
          (* Trim finalised history once at least a window's worth is
             droppable, so idle buckets keep their compiled program. *)
          match b.floor with
          | Some (fq, _) when Rtec.Stream.size b.stream > 0 ->
            let keep_from = fq - w + 2 in
            if fst (Rtec.Stream.extent b.stream) < keep_from - w then
              b.stream <- Rtec.Stream.drop_before b.stream keep_from
          | _ -> ()
        end)
      svc.buckets
  | _ -> ());
  (match (svc.cfg.ttl, now) with
  | Some ttl, Some now when not svc.collapsed ->
    let ttl_eff = max ttl w in
    List.iter
      (fun b -> if b.alive && b.session <> None && now - b.last_seen > ttl_eff then retire svc b)
      svc.buckets
  | _ -> ());
  Telemetry.Metrics.set g_active (float_of_int svc.n_active);
  Telemetry.Metrics.set g_evicted (float_of_int svc.n_evicted)

(* The per-tick result is captured in O(1) — the retired map and each
   live session's accumulated map are persistent values — and merged
   only if the caller forces it, so ticks whose intervals are discarded
   (--emit final serving, watermark-driven ticking) never pay the
   amalgamation over an ever-growing history. *)
let capture_intervals svc =
  let seqs =
    List.filter_map
      (fun b ->
        match b.session with
        | Some s when b.alive -> Some (Session.result_seq s)
        | _ -> None)
      svc.buckets
  in
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
        match b.session with
        | Some s when b.alive ->
          let st : Rtec.Window.stats = Session.stats s in
          (q + st.queries, e + st.events_processed)
        | _ -> (q, e))
      (svc.retired_queries, svc.retired_events)
      svc.buckets
  in
  {
    queries;
    events_processed = events;
    buckets = List.length (alive_buckets svc);
    jobs = svc.last_jobs;
    appends = svc.n_appends;
    late_events = svc.n_late;
    dropped_late = svc.n_dropped;
    revisions = svc.n_revisions;
    entities_active = svc.n_active;
    entities_evicted = svc.n_evicted;
  }

let process_pass_inner svc ~w ~s ~now qs =
  (if qs <> [] && svc.lo = None then svc.lo <- Some (Option.value ~default:0 svc.ev_lo));
  let lo = Option.value ~default:0 svc.lo in
  let work =
    List.filter_map
      (fun b ->
        let worklist = plan_revision svc b @ qs in
        if worklist = [] then None else Some (b, worklist))
      (alive_buckets svc)
  in
  let work = Array.of_list work in
  let n = Array.length work in
  let outcome =
    if n = 0 then Result.Ok ()
    else begin
      let effective_jobs = min svc.cfg.jobs (Domain.recommended_domain_count ()) in
      let use_pool = n > 1 && (svc.pool_always || effective_jobs > 1) in
      let jobs = max 1 (min effective_jobs n) in
      svc.last_jobs <- (if use_pool then jobs else 1);
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
                (fun () -> run_bucket svc ~w ~s ~lo wb))
            work
        else Array.map (run_bucket svc ~w ~s ~lo) work
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
    finalise_and_evict svc ~w ~now;
    if Rtec.Derivation.is_enabled () then Rtec.Derivation.publish_metrics ();
    Ok { intervals = capture_intervals svc; watermark = svc.ev_hi; stats = stats svc }

let process_pass svc ~w ~s ~now qs =
  let r =
    Telemetry.Metrics.time_us h_stage_evaluate (fun () ->
        process_pass_inner svc ~w ~s ~now qs)
  in
  (match r with
  | Ok res when Telemetry.Flight.is_enabled () ->
    Telemetry.Flight.record Tick
      ~a:(Option.value ~default:(-1) now)
      ~b:(List.length qs) ~c:res.stats.buckets ()
  | _ -> ());
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
  match resolve_ws svc None with
  | Result.Error e -> Result.Error e
  | Ok (w, s) -> process_pass svc ~w ~s ~now:(Some now) (grid_until svc ~w ~s now)

let drain svc =
  let lo = Option.value ~default:0 svc.ev_lo in
  let hi = Option.value ~default:0 svc.ev_hi in
  match resolve_ws svc (Some (lo, hi)) with
  | Result.Error e -> Result.Error e
  | Ok (w, s) ->
    (* The batch grid: every step until the end of the stream, with a
       final query exactly at the end — [Window.query_times]'s shape. *)
    let qs = grid_until svc ~w ~s (hi - 1) in
    let qs =
      match svc.prev_q with Some pq when pq >= hi -> qs | _ -> qs @ [ hi ]
    in
    process_pass svc ~w ~s ~now:(Some hi) qs

(* --- batch seeding (the Runtime.run wrapper) --- *)

let seed svc streams =
  List.iter
    (fun stream ->
      let b = new_bucket svc in
      b.stream <- stream;
      if Rtec.Stream.size stream > 0 then begin
        let s_lo, s_hi = Rtec.Stream.extent stream in
        svc.ev_lo <- Some (match svc.ev_lo with None -> s_lo | Some x -> min x s_lo);
        svc.ev_hi <- Some (match svc.ev_hi with None -> s_hi | Some x -> max x s_hi);
        b.last_seen <- s_hi
      end;
      List.iter
        (fun e ->
          TermTbl.replace svc.keys e ();
          note_entity svc b e)
        (Rtec.Stream.entities stream))
    streams
