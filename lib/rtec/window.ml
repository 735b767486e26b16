type stats = { queries : int; events_processed : int }

let m_queries = Telemetry.Metrics.counter "window.queries"
let m_delta_runs = Telemetry.Metrics.counter "window.delta_runs"
let m_full_runs = Telemetry.Metrics.counter "window.full_runs"
let m_compiles = Telemetry.Metrics.counter "window.compiles"
let h_events = Telemetry.Metrics.histogram "window.events_per_query"
let h_carry = Telemetry.Metrics.histogram "window.carry_size"

module FvpMap = Map.Make (struct
  type t = Engine.fvp

  let compare = Engine.compare_fvp
end)

let query_times ~lo ~hi ~window ~step =
  (* The first query fires once a full window has elapsed (so its window
     reaches back to the start of the stream) — capped at [hi], so a stream
     shorter than one window still yields exactly one query. Queries then
     repeat every [step] time-points, with a final query exactly at the end
     of the stream; a step landing exactly on [hi] is not queried twice. *)
  let first = min (lo + window - 1) hi in
  let rec gen q acc = if q >= hi then List.rev (hi :: acc) else gen (q + step) (q :: acc) in
  let rec dedupe = function
    | a :: (b :: _ as rest) when a = b -> dedupe rest
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  dedupe (gen first [])

(* The per-query evaluation state, extracted so that the one-shot [run]
   below and the long-lived [Runtime.Service] drive the exact same code:
   whatever path schedules the queries, each query is evaluated by
   [Session.process], so differential guarantees between the batch and
   streaming entry points hold by construction. *)
module Session = struct
  type t = {
    plan : Engine.plan;
    knowledge : Knowledge.t;
    window : int;
    step : int;
    compile : bool;
    delta_ok : bool;
    mutable stream : Stream.t;
    (* The compiled program and the stream value (physical identity —
       streams are immutable) its event tables mirror. A changed stream
       — grown, merged or trimmed — refreshes the tables in place. A
       trim drops the program once its intern table holds more than
       twice the [compiled_terms] it held right after compiling, so the
       next query compiles afresh: the table stays bounded by the
       retained stream, and each compile is paid for by at least as many
       terms interned since the last. *)
    mutable compiled : (Stream.t * Compiled.program) option;
    mutable compiled_terms : int;
    mutable accumulated : Interval.t FvpMap.t;
    mutable prev_q : int option;
    mutable queries : int;
    mutable events_processed : int;
  }

  type checkpoint = {
    cp_accumulated : Interval.t FvpMap.t;
    cp_prev_q : int option;
    cp_queries : int;
    cp_events_processed : int;
  }

  let create ?(compile = true) ~window ~step ~plan ~knowledge ~stream () =
    if window <= 0 || step <= 0 then Result.Error "window and step must be positive"
    else
      (* When consecutive windows overlap and every construct in the event
         description is pointwise, the overlap region would be re-derived
         identically: evaluate only the step delta, carrying the previous
         query's fluents forward. Duration-sensitive constructs force a full
         re-evaluation of each window. *)
      Ok
        {
          plan;
          knowledge;
          window;
          step;
          compile;
          delta_ok = step <= window && Engine.window_insensitive plan;
          stream;
          compiled = None;
          compiled_terms = 0;
          accumulated = FvpMap.empty;
          prev_q = None;
          queries = 0;
          events_processed = 0;
        }

  let stream t = t.stream
  let set_stream ?(trimmed = false) t stream =
    t.stream <- stream;
    match t.compiled with
    | Some (_, p) when trimmed && Intern.term_count (Compiled.intern p) > 2 * t.compiled_terms ->
      t.compiled <- None
    | _ -> ()
  let prev_q t = t.prev_q
  let delta_ok t = t.delta_ok

  let program t =
    if not t.compile then None
    else
      match t.compiled with
      | Some (s, p) when s == t.stream -> Some p
      | Some (_, p) ->
        Compiled.refresh p t.stream;
        t.compiled <- Some (t.stream, p);
        Some p
      | None ->
        Telemetry.Metrics.incr m_compiles;
        let p =
          Compiled.compile ~analysis:(Engine.analysis t.plan) ~knowledge:t.knowledge
            ~stream:t.stream ()
        in
        t.compiled <- Some (t.stream, p);
        t.compiled_terms <- Intern.term_count (Compiled.intern p);
        Some p

  let record t (fv, spans) =
    if not (Interval.is_empty spans) then
      t.accumulated <-
        FvpMap.update fv
          (fun o -> Some (Interval.union spans (Option.value ~default:Interval.empty o)))
          t.accumulated

  let process t ~lo q =
    let compiled = program t in
    let window_start = max lo (q - t.window + 1) in
    let eval_from =
      match t.prev_q with
      | Some pq when t.delta_ok && pq + 1 >= window_start -> pq + 1
      | _ -> window_start
    in
    let delta_run = eval_from > window_start in
    let window_events = Stream.count_in t.stream ~from:eval_from ~until:q in
    (* FVPs holding at the evaluation start according to what has been
       recognised so far are carried over by inertia; every FVP ever
       recognised remains a grounding candidate for holdsFor schemas. *)
    let carry, universe =
      FvpMap.fold
        (fun fv spans (carry, universe) ->
          ((if Interval.mem eval_from spans then fv :: carry else carry), fv :: universe))
        t.accumulated ([], [])
    in
    Telemetry.Metrics.incr m_queries;
    Telemetry.Metrics.incr (if delta_run then m_delta_runs else m_full_runs);
    Derivation.record_query ~q ~eval_from ~window_start;
    Telemetry.Metrics.observe h_events (float_of_int window_events);
    Telemetry.Metrics.observe h_carry (float_of_int (List.length carry));
    let sp = Telemetry.Trace.start "window.query" in
    let outcome =
      Engine.run ~carry ~universe ~input_from:window_start ~origin:lo ?compiled ~plan:t.plan
        ~knowledge:t.knowledge ~stream:t.stream ~from:eval_from ~until:q ()
    in
    Telemetry.Trace.finish sp
      ~args:
        [
          ("q", Telemetry.Trace.Int q);
          ("delta", Telemetry.Trace.Bool delta_run);
          ("events", Telemetry.Trace.Int window_events);
          ("carry", Telemetry.Trace.Int (List.length carry));
        ];
    match outcome with
    | Result.Error e -> Result.Error e
    | Ok result ->
      (* Truncate open intervals just past the query horizon so that the
         next (overlapping) window extends them seamlessly. *)
      let horizon = q + 2 in
      List.iter (fun (fv, spans) -> record t (fv, Interval.clamp eval_from horizon spans)) result;
      t.queries <- t.queries + 1;
      t.events_processed <- t.events_processed + window_events;
      t.prev_q <- Some q;
      Ok ()

  let save t =
    {
      cp_accumulated = t.accumulated;
      cp_prev_q = t.prev_q;
      cp_queries = t.queries;
      cp_events_processed = t.events_processed;
    }

  let restore t cp =
    t.accumulated <- cp.cp_accumulated;
    t.prev_q <- cp.cp_prev_q;
    t.queries <- cp.cp_queries;
    t.events_processed <- cp.cp_events_processed

  let merge_checkpoint a b =
    {
      cp_accumulated =
        FvpMap.union
          (fun _ x y -> Some (Interval.union x y))
          a.cp_accumulated b.cp_accumulated;
      cp_prev_q =
        (match (a.cp_prev_q, b.cp_prev_q) with
        | None, x | x, None -> x
        | Some x, Some y -> Some (max x y));
      cp_queries = a.cp_queries + b.cp_queries;
      cp_events_processed = a.cp_events_processed + b.cp_events_processed;
    }

  (* Union of two evaluation states over disjoint entity components: the
     streaming service calls this when a cross-entity item joins two
     previously independent buckets. Both sides must have processed the
     same query grid (the service guarantees it), so the merged state is
     exactly what one session over the union stream would hold. *)
  let absorb t other = restore t (merge_checkpoint (save t) (save other))

  let result t = FvpMap.fold (fun fv spans acc -> (fv, spans) :: acc) t.accumulated []

  (* O(1) capture: the sequence ranges over the persistent accumulated
     map as of this call, unaffected by later [process]/[restore] — what
     the streaming service's lazy per-tick results are built from. *)
  let result_seq t = FvpMap.to_seq t.accumulated
  let stats t = { queries = t.queries; events_processed = t.events_processed }
end

let run ?window ?step ?(compile = true) ~event_description ~knowledge ~stream () =
  let lo, hi = Stream.extent stream in
  (* Without an explicit window, a single query covers the whole extent. *)
  let window = Option.value ~default:(hi - lo + 1) window in
  let step = Option.value ~default:window step in
  let plan = Engine.plan event_description in
  match Session.create ~compile ~window ~step ~plan ~knowledge ~stream () with
  | Result.Error e -> Result.Error e
  | Ok session -> (
    let rec loop = function
      | [] -> None
      | q :: rest -> (
        match Session.process session ~lo q with Error e -> Some e | Ok () -> loop rest)
    in
    let delta_ok = Session.delta_ok session in
    match
      Telemetry.Trace.with_span "window.run"
        ~args:
          [
            ("window", Telemetry.Trace.Int window);
            ("step", Telemetry.Trace.Int step);
            ("delta_ok", Telemetry.Trace.Bool delta_ok);
          ]
        (fun () -> loop (query_times ~lo ~hi ~window ~step))
    with
    | Some e -> Result.Error e
    | None -> Ok (Session.result session, Session.stats session))
