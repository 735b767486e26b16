module Pool = Pool
module Service = Service
module Server = Server

type config = Service.config
type stats = Service.stats

let config = Service.config
let default = config ()

let m_runs = Telemetry.Metrics.counter "runtime.runs"

(* The one-shot run is a thin wrapper over {!Service}: seed the stream
   as [jobs] groups of entity components, drain the whole query grid in
   one pass. The service evaluates each bucket with [Window.Session],
   the code every query goes through, and merges the per-bucket
   interval maps in the canonical fluent-value order, so the batch
   differential guarantees (grouped == sequential, exact telemetry
   merge at join) carry over by construction. *)
let run ~config:(config : config) ~event_description ~knowledge ~stream () =
  if config.jobs < 1 then Result.Error "jobs must be positive"
  else begin
    Telemetry.Metrics.incr m_runs;
    let svc =
      Service.create
        ~config:{ config with horizon = 0; ttl = None }
        ~event_description ~knowledge ()
    in
    Service.seed svc ~groups:config.jobs stream;
    let outcome =
      Result.map
        (fun (r : Service.result) -> (Lazy.force r.intervals, r.stats))
        (Service.drain svc)
    in
    (* Recorder counters/gauges surface through the metrics registry
       once per run; a no-op unless both recorder and metrics are on. *)
    if Rtec.Derivation.is_enabled () then Rtec.Derivation.publish_metrics ();
    outcome
  end
