module Pool = Pool
module Service = Service

type config = { window : int option; step : int option; jobs : int; compile : bool }

let default = { window = None; step = None; jobs = 1; compile = true }
let config ?window ?step ?(jobs = 1) ?(compile = true) () = { window; step; jobs; compile }

type stats = { queries : int; events_processed : int; shards : int; jobs : int }

let m_runs = Telemetry.Metrics.counter "runtime.runs"

(* The one-shot run is a thin wrapper over {!Service}: seed the stream
   as [jobs] groups of entity components, drain the whole query grid in
   one pass. The service evaluates each bucket with the same
   [Window.Session] code a direct [Window.run] uses and merges the
   per-bucket interval maps in the canonical fluent-value order, so the
   batch differential guarantees (grouped == sequential, exact
   telemetry/provenance merge at join) carry over by construction. *)
let run ~config:(config : config) ~event_description ~knowledge ~stream () =
  if config.jobs < 1 then Result.Error "jobs must be positive"
  else begin
    Telemetry.Metrics.incr m_runs;
    let svc =
      Service.create
        ~config:
          (Service.config ?window:config.window ?step:config.step ~jobs:config.jobs
             ~compile:config.compile ~horizon:0 ())
        ~event_description ~knowledge ()
    in
    Service.seed svc ~groups:config.jobs stream;
    let outcome =
      Result.map
        (fun (r : Service.result) ->
          ( Lazy.force r.intervals,
            {
              queries = r.stats.queries;
              events_processed = r.stats.events_processed;
              shards = r.stats.buckets;
              jobs = r.stats.jobs;
            } ))
        (Service.drain svc)
    in
    (* Recorder counters/gauges surface through the metrics registry
       once per run; a no-op unless both recorder and metrics are on. *)
    if Rtec.Derivation.is_enabled () then Rtec.Derivation.publish_metrics ();
    outcome
  end
