(** Long-lived streaming recognition sessions.

    A service is the always-on counterpart of the one-shot
    [Runtime.run]: create it once, {!ingest} newline-sized batches of
    stream items as they arrive, {!tick} it on a wall-clock or explicit
    schedule to advance the sliding-window query grid, and read each
    tick's amalgamated intervals. Per-entity evaluation state persists
    across windows in entity shards ("buckets") that mirror
    {!Rtec.Stream.partition}'s connected components incrementally —
    every bucket is driven by a {!Rtec.Window.Session}, the exact
    per-query evaluation code of the batch path, so streaming results
    are bit-identical to an in-order batch run over the same accepted
    input.

    Out-of-order items are repaired by bounded revision: each processed
    query checkpoints the owning bucket's state (O(1), persistent maps);
    a late item within the {!config}'s revision horizon rolls the bucket
    back to the newest checkpoint before the item's time and replays the
    overlapping queries over the merged stream. Later items are counted
    ([stream.late_events] / [stream.dropped_late]) and dropped. Idle
    entities can be evicted after a TTL: their recognised intervals are
    frozen into the service result and their working state (stream
    slice, checkpoints, compiled program) is released
    ([service.entities.active/evicted] gauges). *)

type config = {
  window : int option;
      (** sliding-window size in time-points; [None] is only meaningful
          for drain-only (batch) use, where it defaults to the whole
          extent — {!tick} requires an explicit window *)
  step : int option;  (** query step; [None] means one window per step *)
  jobs : int;  (** upper bound on worker-domain fan-out per pass *)
  compile : bool;  (** compile rule programs per bucket ({!Rtec.Compiled}) *)
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
          result but are no longer extended or revised, and a returning
          entity starts from fresh state. *)
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
  appends : int;  (** ingestion batches merged into bucket streams *)
  late_events : int;  (** items that arrived at or before the last query *)
  dropped_late : int;  (** late items beyond the revision horizon, dropped *)
  revisions : int;  (** bucket rollback-and-replay passes *)
  entities_active : int;
  entities_evicted : int;
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
  ?pool_always:bool ->
  config:config ->
  event_description:Rtec.Ast.t ->
  knowledge:Rtec.Knowledge.t ->
  unit ->
  t
(** A fresh session; never fails (window/step validation surfaces at the
    first {!tick}/{!drain}, like [Window.run]). [pool_always] brackets
    multi-bucket passes in the worker pool even at fan-out 1 — the batch
    wrapper's forced-shards telemetry semantics; leave it unset. *)

val ingest : t -> Rtec.Stream.item list -> unit
(** Feed a batch of stream items, in arrival order. Events need not be
    in time order: an item at or before the last processed query is late
    — within the revision horizon it schedules its entity shard for
    rollback-and-replay at the next {!tick}; beyond it (or before the
    frozen grid origin) it is counted and dropped. Routed items land in
    per-bucket reusable scratch arrays and each touched bucket flushes
    with one O(batch) {!Rtec.Stream.append_items} (index rebuilds are
    deferred to the next tick's first query). Raises [Invalid_argument]
    on non-ground items. *)

val tick : t -> now:int -> (result, string) Result.t
(** Advance the query grid through every query time at or before [now]
    (plus any scheduled revision replays) and return the amalgamated
    result. Query times follow [Window.query_times]'s grid: the first
    once a full window has elapsed from the first event, then every
    step. Ticking beyond the watermark evaluates empty window suffixes —
    meaningful when wall-clock time passes without events. Also applies
    TTL eviction, with [now] as the clock. *)

val drain : t -> (result, string) Result.t
(** Process every remaining query up to the watermark plus the final
    query exactly at it — the batch grid shape. Draining a seeded,
    never-ticked service is exactly [Runtime.run]'s evaluation; that
    wrapper is implemented this way. *)

val stats : t -> stats

val watermark : t -> int option

val seed : t -> Rtec.Stream.t list -> unit
(** Pre-populate one bucket per stream (the batch wrapper's entry:
    [Stream.partition] decides the shards, then one {!drain} sweeps the
    grid). Entity keys of each stream are registered for routing, but
    subterm mentions are not tracked for seeded items — mixing [seed]
    with out-of-order {!ingest} of items that retroactively connect
    seeded shards is not supported. *)

val has_ground_initially : Rtec.Ast.t -> bool
(** Whether the event description carries ground [initially(F = V)]
    facts. Their seeds belong to no entity shard, so such descriptions
    are evaluated in a single bucket (the batch runtime's sequential
    fallback does the same). *)
