module Pool = Pool
module Service = Service

type config = {
  window : int option;
  step : int option;
  jobs : int;
  shards : int option;
  compile : bool;
}

let default = { window = None; step = None; jobs = 1; shards = None; compile = true }

let config ?window ?step ?(jobs = 1) ?shards ?(compile = true) () =
  { window; step; jobs; shards; compile }

type stats = { queries : int; events_processed : int; shards : int; jobs : int }

let m_runs = Telemetry.Metrics.counter "runtime.runs"
let m_sharded_runs = Telemetry.Metrics.counter "runtime.sharded_runs"
let h_shards = Telemetry.Metrics.histogram "runtime.shards"
let h_shard_events = Telemetry.Metrics.histogram "runtime.shard_events"
let g_jobs = Telemetry.Metrics.gauge "runtime.jobs"

(* The one-shot run is a thin wrapper over {!Service}: seed one bucket
   per shard, drain the whole query grid in one pass. The service
   evaluates each bucket with the same [Window.Session] code a direct
   [Window.run] uses and merges the per-bucket interval maps in the
   canonical fluent-value order, so the batch differential guarantees
   (sharded == sequential, exact telemetry/provenance merge at join)
   carry over by construction. *)
let run ~config:(config : config) ~event_description ~knowledge ~stream () =
  if config.jobs < 1 then Result.Error "jobs must be positive"
  else begin
    Telemetry.Metrics.incr m_runs;
    let finish outcome =
      (* Recorder counters/gauges surface through the metrics registry
         once per run; a no-op unless both recorder and metrics are on. *)
      if Rtec.Derivation.is_enabled () then Rtec.Derivation.publish_metrics ();
      outcome
    in
    let run_service ~pool_always ~jobs ~shards shard_streams =
      let svc =
        Service.create ~pool_always
          ~config:
            (Service.config ?window:config.window ?step:config.step ~jobs
               ~compile:config.compile ~horizon:0 ())
          ~event_description ~knowledge ()
      in
      Service.seed svc shard_streams;
      match Service.drain svc with
      | Result.Error e -> Result.Error e
      | Ok (r : Service.result) ->
        Ok
          ( Lazy.force r.intervals,
            {
              queries = r.stats.queries;
              events_processed = r.stats.events_processed;
              shards;
              jobs;
            } )
    in
    finish
    @@
    (* [jobs] is an upper bound on fan-out, not a demand: domains beyond
       the host's cores never help in OCaml 5 (every minor collection is
       a stop-the-world sync across domains, so oversubscription turns
       each GC into a context-switch storm — >2x slowdown measured on a
       single-core host). Sharding follows the effective fan-out; an
       explicit [shards] still forces a finer partition, so the
       partition/merge machinery stays exercised on any host. *)
    let effective_jobs = min config.jobs (Domain.recommended_domain_count ()) in
    let sharding_wanted = effective_jobs > 1 || Option.is_some config.shards in
    if (not sharding_wanted) || Service.has_ground_initially event_description then
      run_service ~pool_always:false ~jobs:1 ~shards:1 [ stream ]
    else begin
      let shard_target = Option.value ~default:effective_jobs config.shards in
      let shard_streams = Rtec.Stream.partition ~shards:shard_target stream in
      let n_shards = List.length shard_streams in
      if n_shards <= 1 then run_service ~pool_always:false ~jobs:1 ~shards:1 [ stream ]
      else begin
        let jobs = min effective_jobs n_shards in
        Telemetry.Metrics.incr m_sharded_runs;
        Telemetry.Metrics.observe h_shards (float_of_int n_shards);
        Telemetry.Metrics.set g_jobs (float_of_int jobs);
        List.iter
          (fun shard ->
            Telemetry.Metrics.observe h_shard_events (float_of_int (Rtec.Stream.size shard)))
          shard_streams;
        let sp =
          Telemetry.Trace.start "runtime.run"
            ~args:
              [
                ("jobs", Telemetry.Trace.Int jobs);
                ("shards", Telemetry.Trace.Int n_shards);
                ("events", Telemetry.Trace.Int (Rtec.Stream.size stream));
              ]
        in
        let outcome = run_service ~pool_always:true ~jobs ~shards:n_shards shard_streams in
        Telemetry.Trace.finish sp;
        outcome
      end
    end
  end
