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

(* The per-query evaluation state. Every scheduling path — the
   long-lived [Runtime.Service] and, through it, the one-shot
   [Runtime.run] — evaluates each query with [Session.process], so
   differential guarantees between the batch and streaming entry points
   hold by construction. *)
module Session = struct
  type params = {
    plan : Engine.plan;
    knowledge : Knowledge.t;
    window : int;
    step : int;
    compile : bool;
    delta_ok : bool;
  }

  let params ?(compile = true) ~window ~step ~plan ~knowledge () =
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
        }

  let delta_ok p = p.delta_ok

  (* The evaluation state proper, immutable so that a checkpoint is the
     record itself. Each fvp's spans are kept newest first, the reverse
     of [Interval.t]'s order: a query can only change the spans that
     reach its evaluation start, and those are a prefix of that list. *)
  type state = {
    accumulated : Interval.span list FvpMap.t;
    prev_q : int option;
    queries : int;
    events_processed : int;
  }

  let pristine = { accumulated = FvpMap.empty; prev_q = None; queries = 0; events_processed = 0 }

  type t = {
    mutable state : state;
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
  }

  let create () = { state = pristine; compiled = None; compiled_terms = 0 }

  let trimmed t =
    match t.compiled with
    | Some (_, p) when Intern.term_count (Compiled.intern p) > 2 * t.compiled_terms ->
      t.compiled <- None
    | _ -> ()

  let prev_q t = t.state.prev_q

  let program p t stream =
    if not p.compile then None
    else
      match t.compiled with
      | Some (s, prog) when s == stream -> Some prog
      | Some (_, prog) ->
        Compiled.refresh prog stream;
        t.compiled <- Some (stream, prog);
        Some prog
      | None ->
        Telemetry.Metrics.incr m_compiles;
        let prog =
          Compiled.compile ~analysis:(Engine.analysis p.plan) ~knowledge:p.knowledge ~stream ()
        in
        t.compiled <- Some (stream, prog);
        t.compiled_terms <- Intern.term_count (Compiled.intern prog);
        Some prog

  (* Folds one fvp's result, clamped to start at or after [from], into
     its newest-first spans. [Interval.union] merges two spans only when
     one starts at or before the other's stop, so a span that stops
     before [from] cannot change: only the leading spans that stop at or
     after it are taken off, unioned with the result and put back in
     front. The older spans are shared, not copied. *)
  let record ~from accumulated (fv, spans) =
    if Interval.is_empty spans then accumulated
    else
      FvpMap.update fv
        (fun o ->
          let rec split touched = function
            | (s : Interval.span) :: older when s.stop >= from -> split (s :: touched) older
            | older -> (touched, older)
          in
          let touched, older = split [] (Option.value ~default:[] o) in
          Some (List.rev_append (Interval.union touched spans) older))
        accumulated

  (* [Interval.mem] over newest-first spans: the first span that starts
     at or before [t] is the only one that can hold it. In delta
     evaluation that is the newest span. *)
  let rec holds_at t = function
    | (s : Interval.span) :: older -> if s.start <= t then t < s.stop else holds_at t older
    | [] -> false

  let process p t ~stream ~lo q =
    let compiled = program p t stream in
    let st = t.state in
    let window_start = max lo (q - p.window + 1) in
    let eval_from =
      match st.prev_q with
      | Some pq when p.delta_ok && pq + 1 >= window_start -> pq + 1
      | _ -> window_start
    in
    let delta_run = eval_from > window_start in
    let window_events = Stream.count_in stream ~from:eval_from ~until:q in
    (* FVPs holding at the evaluation start according to what has been
       recognised so far are carried over by inertia; every FVP ever
       recognised remains a grounding candidate for holdsFor schemas. *)
    let carry, universe =
      FvpMap.fold
        (fun fv spans (carry, universe) ->
          ((if holds_at eval_from spans then fv :: carry else carry), fv :: universe))
        st.accumulated ([], [])
    in
    Telemetry.Metrics.incr m_queries;
    Telemetry.Metrics.incr (if delta_run then m_delta_runs else m_full_runs);
    Derivation.record_query ~q ~eval_from ~window_start;
    Telemetry.Metrics.observe h_events (float_of_int window_events);
    Telemetry.Metrics.observe h_carry (float_of_int (List.length carry));
    let sp = Telemetry.Trace.start "window.query" in
    let outcome =
      Engine.run ~carry ~universe ~input_from:window_start ~origin:lo ?compiled ~plan:p.plan
        ~knowledge:p.knowledge ~stream ~from:eval_from ~until:q ()
    in
    (* The span's arguments are built only when it is recorded. *)
    if sp <> Telemetry.Trace.null_span then
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
      t.state <-
        {
          accumulated =
            List.fold_left
              (fun acc (fv, spans) ->
                record ~from:eval_from acc (fv, Interval.clamp eval_from horizon spans))
              st.accumulated result;
          prev_q = Some q;
          queries = st.queries + 1;
          events_processed = st.events_processed + window_events;
        };
      Ok ()

  let save t = t.state
  let restore t state = t.state <- state

  let merge a b =
    {
      accumulated =
        FvpMap.union
          (fun _ x y -> Some (List.rev (Interval.union (List.rev x) (List.rev y))))
          a.accumulated b.accumulated;
      prev_q =
        (match (a.prev_q, b.prev_q) with
        | None, x | x, None -> x
        | Some x, Some y -> Some (max x y));
      queries = a.queries + b.queries;
      events_processed = a.events_processed + b.events_processed;
    }

  (* Union of two evaluation states over disjoint entity components: the
     streaming service calls this when a cross-entity item joins two
     previously independent buckets. Both sides must have processed the
     same query grid (the service guarantees it), so the merged state is
     exactly what one session over the union stream would hold. *)
  let absorb t other = t.state <- merge t.state other.state

  let result t =
    FvpMap.fold (fun fv spans acc -> (fv, List.rev spans) :: acc) t.state.accumulated []

  (* O(1) capture: the sequence ranges over the persistent accumulated
     map as of this call, unaffected by later [process]/[restore] — what
     the streaming service's lazy per-tick results are built from. *)
  let result_seq t =
    Seq.map (fun (fv, spans) -> (fv, List.rev spans)) (FvpMap.to_seq t.state.accumulated)
  let stats t : stats = { queries = t.state.queries; events_processed = t.state.events_processed }
end
