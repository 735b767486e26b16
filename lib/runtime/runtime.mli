(** Multicore entity-grouped recognition runtime.

    [Runtime.run] is the single entry point for stream recognition: it
    consolidates the windowing knobs behind one {!config} record and
    runs a {!Service} session over the whole stream. With [jobs > 1] the
    service routes the stream into its entity-connected components (the
    same router [serve] uses), groups them into [jobs] buckets and
    recognises the buckets in parallel on OCaml domains, merging the
    per-bucket results deterministically. Per-vessel (per-entity)
    recognition is independent up to shared relational fluents, which
    the router never splits — so the grouped result is bit-identical to
    a sequential run, as enforced by the differential test suite.

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

module Server = Server
(** The serve pipeline: line-protocol connections feeding one evaluator
    that drives a {!Service}, and the result printer. *)

type config = Service.config
(** The service's configuration record ({!Service.config}). {!run} reads
    its window, step, jobs and compile fields and always runs with
    horizon [0] and no TTL eviction. *)

val default : config
(** [config ()]: a single query over the whole stream, one job, compiled. *)

val config :
  ?window:int -> ?step:int -> ?jobs:int -> ?compile:bool -> ?horizon:int -> ?ttl:int ->
  unit -> config
(** {!Service.config}. *)

type stats = Service.stats
(** The drained service's {!Service.stats}: [buckets] are the entity
    buckets actually run, [jobs] the worker domains actually used. *)

val run :
  config:config ->
  event_description:Rtec.Ast.t ->
  knowledge:Rtec.Knowledge.t ->
  stream:Rtec.Stream.t ->
  unit ->
  (Rtec.Engine.result * stats, string) Result.t
(** Recognises the event description over the stream: [Service.create],
    [Service.seed ~groups:jobs], [Service.drain].

    With [jobs = 1] this is one {!Rtec.Window.Session} swept over the
    whole stream's query grid: the first query once a full window has
    elapsed (capped at the stream's end), then every [step], and a final
    query exactly at the end, on a single domain.
    Otherwise every bucket is evaluated over the {e same} query-time
    grid (the full stream's extent), and the per-bucket interval maps
    are unioned in the canonical fluent-value order — so the output is
    bit-identical to the sequential run. Streams that cannot be
    attributed to entities (an event with no entity key, or an event
    description with ground [initially] facts) run as a single bucket;
    [stats.buckets] reports what actually ran. Fails on non-positive
    window/step, on [jobs < 1], and on any bucket's engine error (the
    lowest-numbered bucket's error wins, deterministically). *)
