(** Long-lived streaming recognition sessions.

    A service is the always-on counterpart of the one-shot
    [Runtime.run]: create it once, {!ingest} newline-sized batches of
    stream items as they arrive, {!tick} it on a wall-clock or explicit
    schedule to advance the sliding-window query grid, and read each
    tick's amalgamated intervals. Per-entity evaluation state persists
    across windows in entity shards ("buckets"): the service routes
    every item to the bucket of its entity-connected component, and is
    the repo's one entity partitioner — [Runtime.run] seeds a service
    too. Every bucket is driven by a {!Rtec.Window.Session}, created
    with the bucket and evaluating with the parameters the service
    resolves once, at its first pass: the exact per-query evaluation
    code of the batch path, so streaming results are bit-identical to
    an in-order batch run over the same accepted input.

    Routing: an argument becomes an entity key the first time it leads
    an event or input fluent (the RTEC convention puts the entity first:
    [velocity(Vessel, ...)], [proximity(Vessel1, Vessel2)]; numeric
    first arguments are never keys). An item belongs to the component of
    every key occurring anywhere in it, so a pairwise fluent keeps both
    entities in one bucket while a shared attribute constant (an area)
    glues nothing. A term that an item mentions before it is a key
    joins that item's bucket once it leads an item. An item with no
    entity key, or an event description with ground [initially(F=V)]
    facts (whose seeds belong to no entity), collapses the service to a
    single bucket.

    Out-of-order items are repaired by bounded revision: each processed
    query checkpoints the owning bucket's state (O(1), persistent maps)
    onto the bucket's one checkpoint list; a late item within the
    {!config}'s revision horizon rolls the bucket back to the newest
    checkpoint before the item's time, or to the pristine state when
    the bucket has none that old, and replays the overlapping queries
    over the merged stream. Later items are counted
    ([stream.late_events] / [stream.dropped_late]) and dropped. Idle
    entities can be evicted after a TTL: their recognised intervals are
    frozen into the service result, and their bucket is dropped with
    its working state (stream slice, checkpoints, compiled program),
    its entity keys and its routing entries
    ([service.entities.active/evicted] gauges). A bucket merged into
    another is dropped the same way, so the service holds only its live
    buckets. *)

type config = {
  window : int option;
      (** sliding-window size in time-points; [None] is only meaningful
          for drain-only (batch) use, where it defaults to the whole
          extent — {!tick} requires an explicit window *)
  step : int option;  (** query step; [None] means one window per step *)
  jobs : int;
      (** upper bound on worker-domain fan-out per pass, further capped
          at [Domain.recommended_domain_count ()]: domains beyond the
          host's cores never help in OCaml 5, so surplus buckets share
          the granted domains. [Runtime.run] also groups the stream's
          entity components into this many buckets ({!seed}). *)
  compile : bool;
      (** compile rule programs per bucket ({!Rtec.Compiled}); [false]
          forces the interpreter — the differential oracle, with
          bit-identical results *)
  horizon : int;
      (** revision horizon in time-points: a late item is accepted and
          triggers re-evaluation iff it is newer than
          [last query - horizon]; [0] (the default) drops every late
          item. Revision support costs one checkpoint per query per
          bucket while queries are within the horizon. *)
  ttl : int option;
      (** evict an entity shard once no item has arrived for it in
          [max ttl window] time-points ([None]: never). Eviction freezes
          the shard's recognised intervals: they stay in the service
          result but are no longer extended or revised. Its entities
          are forgotten: a returning entity is a new key with fresh
          state, and an item that only mentions an evicted entity (not
          as its leading argument) does not make it active again. Not
          applied once the service has collapsed to one bucket. *)
}

val config :
  ?window:int ->
  ?step:int ->
  ?jobs:int ->
  ?compile:bool ->
  ?horizon:int ->
  ?ttl:int ->
  unit ->
  config
(** [config ()] is [{window = None; step = None; jobs = 1;
    compile = true; horizon = 0; ttl = None}]. *)

type stats = {
  queries : int;
      (** query evaluations, excluding revision replays: a revision
          restores a checkpoint, which rewinds this count to the value
          it had there, so replayed queries are not counted twice. *)
  events_processed : int;
  buckets : int;  (** live entity shards *)
  jobs : int;  (** worker domains used by the latest pass *)
  appends : int;  (** accepted items, each appended to its bucket's stream *)
  late_events : int;  (** items that arrived at or before the last query *)
  dropped_late : int;  (** late items beyond the revision horizon, dropped *)
  revisions : int;  (** bucket rollback-and-replay passes *)
  entities_active : int;  (** live entity keys: evicted entities are not counted *)
  entities_evicted : int;  (** entity keys dropped by TTL eviction *)
}

type result = {
  intervals : Rtec.Engine.result Lazy.t;
      (** all recognised maximal intervals so far (evicted entities'
          frozen history included), in the canonical fluent-value order.
          Captured in O(1) from persistent state at tick time and merged
          on first force, so callers that discard a tick's intervals
          (e.g. [--emit final] serving) never pay the amalgamation; the
          forced value is unaffected by later ingests or ticks. *)
  watermark : int option;  (** greatest accepted event time *)
  stats : stats;
}

type t

val create :
  config:config -> event_description:Rtec.Ast.t -> knowledge:Rtec.Knowledge.t -> unit -> t
(** A fresh session; never fails: window and step are resolved and
    validated at the first {!tick}/{!drain}, which is also when the
    event description is analysed, once per session, into the
    {!Rtec.Window.Session.params} every bucket's session evaluates
    with. *)

val ingest : t -> Rtec.Stream.item list -> unit
(** Feed a batch of stream items, in arrival order. Events need not be
    in time order: an item at or before the last processed query is late
    — within the revision horizon it schedules its entity shard for
    rollback-and-replay at the next {!tick}; beyond it (or before the
    frozen grid origin) it is counted and dropped. Each accepted item is
    appended to its bucket's stream as soon as it is routed, with an
    O(1) {!Rtec.Stream.append_items} (index rebuilds are deferred to the
    next tick's first query). Raises [Invalid_argument] on a non-ground
    item, before routing any item of the batch: a rejected batch leaves
    the service exactly as it was. *)

val tick : t -> now:int -> (result, string) Result.t
(** Advance the query grid through every query time at or before [now]
    (plus any scheduled revision replays) and return the amalgamated
    result. Query times follow one grid: the first once a full window
    has elapsed from the first event, then every step. Ticking beyond
    the watermark evaluates empty window suffixes — meaningful when
    wall-clock time passes without events. Also applies TTL eviction,
    with [now] as the clock. *)

val drain : t -> (result, string) Result.t
(** Process every remaining query up to the watermark plus the final
    query exactly at it — the batch grid shape. Draining a seeded,
    never-ticked service is exactly [Runtime.run]'s evaluation; that
    wrapper is implemented this way. *)

val stats : t -> stats

val watermark : t -> int option

val seed : t -> groups:int -> Rtec.Stream.t -> unit
(** [seed svc ~groups s] loads a whole stream into a fresh service, the
    batch wrapper's entry ([Runtime.run] is [create], [seed], {!drain}).

    With [groups <= 1], an empty [s], or when the service is already
    collapsed (ground [initially(F=V)] facts), [s] becomes the one bucket as
    it is, without routing, and later {!ingest}s join that bucket too.
    Otherwise the stream's events, then its input fluents, go through
    {!ingest}, and the resulting component buckets are merged into at
    most [groups] buckets by greedy longest-processing-time grouping:
    largest by event count first, each onto the least-loaded group. A
    component is never split, so the result is bit-identical to a
    single-bucket run. Fewer buckets than [groups] can result: there may
    be fewer components, and event-less components weigh nothing. *)
