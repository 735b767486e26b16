(** Multicore sharded recognition runtime.

    [Runtime.run] is the single entry point for stream recognition: it
    consolidates the windowing knobs behind one {!config} record and,
    when [jobs > 1], shards the stream along the entity-connected
    components of its events and input fluents ({!Rtec.Stream.partition})
    and recognises the shards in parallel on OCaml domains, merging the
    per-shard results deterministically. Per-vessel (per-entity)
    recognition is independent up to shared relational fluents, which the
    partition never splits — so the sharded result is bit-identical to a
    sequential run, as enforced by the differential test suite.

    Worker domains run with per-domain telemetry accumulators
    ({!Telemetry.Metrics.with_local}, {!Telemetry.Trace.with_local}):
    metrics are merged exactly into the process registry when each worker
    joins, and spans are tagged with the worker id as their track. *)

module Service = Service
(** Long-lived streaming recognition sessions: [Service.create ~config],
    [ingest] line-protocol items as they arrive, [tick ~now] to advance
    the window grid, with per-entity state across windows, bounded
    out-of-order revision and idle-entity eviction. {!run} below is a
    thin wrapper over a seeded, drained service. *)

module Pool : sig
  val map : jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
  (** [map ~jobs f items] fans [items] out to at most [jobs] domains (the
      calling domain works too). Tasks are pulled from a shared atomic
      index; [f] receives the item index and the item, and the result
      array preserves item order regardless of scheduling. Each worker
      domain runs under {!Telemetry.Metrics.with_local},
      {!Telemetry.Trace.with_local} (with the worker id as its track) and
      {!Rtec.Derivation.with_local}, so counters and derivation records
      produced by [f] merge exactly into the process-wide state at join
      and spans land on the worker's own track. *)
end

type config = {
  window : int option;
      (** sliding-window size in time-points; [None] (the default) runs
          a single query over the whole stream extent *)
  step : int option;
      (** query step; [None] (the default) means one window per step,
          i.e. tumbling windows *)
  jobs : int;
      (** upper bound on worker-domain fan-out; the default [1]
          evaluates sequentially in the calling domain, exactly like
          [Window.run]. The effective fan-out is capped at
          [Domain.recommended_domain_count ()]: domains beyond the
          host's cores never help in OCaml 5 (every minor collection
          synchronises all domains), so oversubscription is treated as
          a request for "as parallel as this host goes". *)
  shards : int option;
      (** upper bound on the number of stream shards; [None] (the
          default) uses one shard per {e effective} worker, so each
          worker gets one balanced shard. An explicit count gives finer
          load balancing (more shards than jobs) at the cost of more
          per-query engine work — and forces the partition even where
          the clamp serialised the workers. *)
  compile : bool;
      (** compile transition rules to closure chains over interned terms
          ([Rtec.Compiled]); each shard compiles its own program. [false]
          forces the interpreter — the differential oracle; results are
          bit-identical either way. Default [true]. *)
}

val default : config
(** [{ window = None; step = None; jobs = 1; shards = None; compile = true }] *)

val config :
  ?window:int -> ?step:int -> ?jobs:int -> ?shards:int -> ?compile:bool -> unit -> config
(** [config ()] is {!default}; each argument overrides one field. *)

type stats = {
  queries : int;  (** query times processed, summed over shards *)
  events_processed : int;  (** window-events evaluated, summed over shards *)
  shards : int;  (** shards actually run *)
  jobs : int;  (** worker domains actually used *)
}

val run :
  config:config ->
  event_description:Rtec.Ast.t ->
  knowledge:Rtec.Knowledge.t ->
  stream:Rtec.Stream.t ->
  unit ->
  (Rtec.Engine.result * stats, string) Result.t
(** Recognises the event description over the stream.

    With an effective fan-out of 1 (requested [jobs = 1], or a larger
    request clamped by a single-core host) and [shards = None] this is
    exactly [Window.run ?window ?step]: same evaluation, same result
    order, same single-domain execution. Otherwise the stream is
    partitioned,
    every shard is evaluated over the {e same} query-time grid (the full
    stream's extent) with bounded fan-out, and the per-shard interval
    maps are unioned in the canonical fluent-value order — so the output
    is bit-identical to the sequential run. Streams that cannot be
    attributed to entities (an event with no entity key, or an event
    description with ground [initially] facts, whose seeds belong to no
    shard) fall back to a single shard; [stats.shards] reports what
    actually ran. Fails like [Window.run] on invalid window/step, on
    [jobs < 1], and on any shard's engine error (the lowest-numbered
    shard's error wins, deterministically). *)
