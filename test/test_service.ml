(* The streaming service: out-of-order replay within the revision
   horizon converges bit-identically to the in-order batch run (maritime
   and fleet scenarios, jobs 1 and 4, provenance on and off), and every
   tick's snapshot of a compiled session equals the interpreted one, as
   does the derivation record sequence of a whole session;
   beyond-horizon items are counted and dropped; idle entities are
   evicted with their recognised history frozen in the result; a bucket
   compiles once and keeps its program across trims until its intern
   table doubles; initially facts apply at the grid origin however the
   stream is trimmed; a batch rejected for a non-ground item leaves the
   service untouched; a collapsed service still counts its entities, and
   only a ground initially(F = V) fact collapses one; an item reaching a
   bucket twice merges it once; a churning fleet leaves the service no
   larger, writes one eviction flight record per pass, and an evicted
   entity is forgotten until it leads again; a session's queries
   allocate as much late in its history as early; a
   revision rolls a merged bucket back to the union of both sides'
   checkpoints, young or old, and a bucket with no checkpoint before
   the late item back to the pristine state. *)

open Rtec
module Service = Runtime.Service

let exact result =
  List.map
    (fun ((f, v), spans) -> (Term.to_string f, Term.to_string v, Interval.to_list spans))
    result

let batch ~jobs ~compile ~event_description ~knowledge ~stream () =
  let config = Runtime.config ~window:3600 ~step:1800 ~jobs ~compile () in
  match Runtime.run ~config ~event_description ~knowledge ~stream () with
  | Ok (result, _) -> exact result
  | Error e -> Alcotest.failf "batch recognition failed: %s" e

(* A deterministic per-event delivery delay: events are replayed in
   delivery order [time + delay], so an event can arrive up to
   [amount] time-points after later events — strictly inside the
   service's revision horizon when [horizon > amount]. *)
let delay ~amount t i = (((t * 7919) + (i * 104729)) land max_int) mod (amount + 1)

let out_of_order_events ~amount stream =
  let keyed =
    List.mapi
      (fun i (e : Stream.event) -> (e.time + delay ~amount e.time i, i, e))
      (Stream.events stream)
  in
  let sorted = List.sort compare keyed in
  let events = List.map (fun (_, _, e) -> e) sorted in
  (* The grid origin freezes at the first processed query: a minimal-time
     event must be ingested before the first tick, or the whole grid
     would shift (and the straggler be dropped as pre-origin). Batch
     ingestion knows the extent up front; a live deployment would learn
     [lo] from its first in-order prefix the same way. *)
  let t0 = fst (Stream.extent stream) in
  match List.partition (fun (e : Stream.event) -> e.time = t0) events with
  | first :: _, _ ->
    first :: List.filter (fun (e : Stream.event) -> e != first) events
  | [], _ -> events

let rec chunks n = function
  | [] -> []
  | items ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let chunk, rest = take n [] items in
    chunk :: chunks n rest

let service ~jobs ~horizon ~event_description ~knowledge compile =
  Service.create
    ~config:(Service.config ~window:3600 ~step:1800 ~jobs ~compile ~horizon ())
    ~event_description ~knowledge ()

(* Feed the stream out of order to [services] in lockstep: input fluents
   first (timeless inputs), then events in perturbed delivery order in
   small batches, ticking on watermark progress, and a final drain.
   [check what results] sees the results of every tick and of the drain,
   one per service; the drain's check is returned. *)
let feed services ~stream ~check =
  let ingest items = List.iter (fun svc -> Service.ingest svc items) services in
  let step what f =
    check what
      (List.map
         (fun svc -> match f svc with Ok r -> r | Error e -> Alcotest.failf "%s failed: %s" what e)
         services)
  in
  ingest (List.map (fun (fv, spans) -> Stream.Fluent (fv, spans)) (Stream.input_fluents stream));
  let last_tick = ref None in
  List.iter
    (fun chunk ->
      ingest (List.map (fun e -> Stream.Event e) chunk);
      match Service.watermark (List.hd services) with
      | Some wm when (match !last_tick with None -> true | Some t -> wm >= t + 1800) ->
        ignore (step (Printf.sprintf "tick %d" wm) (fun svc -> Service.tick svc ~now:wm));
        last_tick := Some wm
      | _ -> ())
    (chunks 64 (out_of_order_events ~amount:1500 stream));
  step "drain" Service.drain

(* Replay against a compiled and an interpreted service in lockstep.
   Every tick's snapshot — what an [--emit ticks] client sees — must be
   the same from both; the compiled drain result is returned. *)
let replay ~jobs ~horizon ~event_description ~knowledge ~stream () =
  let service = service ~jobs ~horizon ~event_description ~knowledge in
  feed [ service true; service false ] ~stream ~check:(fun what results ->
      match results with
      | [ (c : Service.result); (i : Service.result) ] ->
        let snapshot = exact (Lazy.force c.intervals) in
        if snapshot <> exact (Lazy.force i.intervals) then
          Alcotest.failf "%s: compiled and interpreted snapshots differ" what;
        (snapshot, c.stats)
      | _ -> assert false)

let check_convergence ~name ~event_description ~knowledge ~stream =
  List.iter
    (fun jobs ->
      let expected = batch ~jobs ~compile:true ~event_description ~knowledge ~stream () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batch recognises something" name)
        true (expected <> []);
      let streamed, stats =
        replay ~jobs ~horizon:3600 ~event_description ~knowledge ~stream ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d out-of-order replay == batch" name jobs)
        true (streamed = expected);
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d replay was actually out of order" name jobs)
        true
        (stats.Service.late_events > 0 && stats.Service.revisions > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: jobs=%d nothing dropped within horizon" name jobs)
        0 stats.Service.dropped_late;
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d ingestion used instrumented appends" name jobs)
        true (stats.Service.appends > 0))
    [ 1; 4 ]

let with_provenance f =
  Derivation.reset ();
  Derivation.set_sampling Derivation.Always;
  Derivation.enable ();
  Fun.protect
    ~finally:(fun () ->
      Derivation.disable ();
      Derivation.reset ())
    f

let test_convergence_maritime () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  check_convergence ~name:"maritime" ~event_description:Maritime.Gold.event_description
    ~knowledge:data.knowledge ~stream:data.stream

let test_convergence_fleet () =
  let stream, knowledge = Fleet.generate () in
  let event_description = Domain.event_description Fleet.domain in
  check_convergence ~name:"fleet" ~event_description ~knowledge ~stream

let test_convergence_provenance () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  let ed = Maritime.Gold.event_description in
  let expected =
    batch ~jobs:1 ~compile:true ~event_description:ed ~knowledge:data.knowledge
      ~stream:data.stream ()
  in
  with_provenance (fun () ->
      List.iter
        (fun jobs ->
          let streamed, _ =
            replay ~jobs ~horizon:3600 ~event_description:ed ~knowledge:data.knowledge
              ~stream:data.stream ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d provenance-on replay == provenance-off batch" jobs)
            true (streamed = expected))
        [ 1; 4 ];
      Alcotest.(check bool)
        "revision replays were recorded" true
        ((Derivation.stats ()).Derivation.records > 0))

(* One service replayed alone at jobs 1 with the recorder on, from an
   empty recorder: the session's decoded derivation records and its
   bucket count. *)
let session_records ~compile ~event_description ~knowledge ~stream =
  Derivation.reset ();
  let svc = service ~jobs:1 ~horizon:3600 ~event_description ~knowledge compile in
  let buckets =
    feed [ svc ] ~stream ~check:(fun _ results ->
        (List.hd results : Service.result).stats.Service.buckets)
  in
  (Derivation.events ~rules:(Engine.labelled_rules event_description) (), buckets)

(* The lockstep replay interleaves two services' records in the one
   recorder, so it compares intervals only. Run one session after the
   other instead: a compiled session switches between its buckets'
   programs and their sinks at every tick, and must still leave the
   interpreter's record sequence. *)
let test_session_records () =
  let data =
    Maritime.Dataset.generate
      ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  let records compile =
    session_records ~compile ~event_description:Maritime.Gold.event_description
      ~knowledge:data.knowledge ~stream:data.stream
  in
  with_provenance (fun () ->
      let compiled, buckets = records true in
      let evicted = (Derivation.stats ()).Derivation.evicted in
      let interpreted, _ = records false in
      Alcotest.(check bool) "several buckets" true (buckets > 1);
      Alcotest.(check int) "nothing evicted" 0 evicted;
      Alcotest.(check bool) "records kept" true (compiled <> []);
      Alcotest.(check int) "as many records" (List.length interpreted) (List.length compiled);
      Alcotest.(check bool) "the same decoded records, in order" true (compiled = interpreted))

(* --- lateness accounting and revision on a hand-built scenario --- *)

let small_ed =
  [
    Parser.parse_definition ~name:"svc"
      "initiatedAt(active(V) = true, T) :- happensAt(start(V), T).\n\
       terminatedAt(active(V) = true, T) :- happensAt(stop(V), T).";
  ]

let event name v t = { Stream.time = t; term = Term.app name [ Term.Atom v ] }

let small_batch events =
  match
    Runtime.run
      ~config:(Runtime.config ~window:10 ~step:10 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty
      ~stream:(Stream.make events) ()
  with
  | Ok (result, _) -> exact result
  | Error e -> Alcotest.failf "batch recognition failed: %s" e

let test_beyond_horizon_drops () =
  let svc =
    Service.create
      ~config:(Service.config ~window:10 ~step:10 ~horizon:5 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  Service.ingest svc
    (List.map (fun e -> Stream.Event e) [ event "start" "v1" 1; event "tour" "v1" 40 ]);
  (match Service.tick svc ~now:40 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "tick failed: %s" e);
  (* 38 time-points late with horizon 5: counted and dropped. *)
  Service.ingest svc [ Stream.Event (event "start" "v2" 2) ];
  (* 2 time-points late: accepted, revises v1's windows — the stop must
     retroactively cut the interval the earlier tick left open. *)
  Service.ingest svc [ Stream.Event (event "stop" "v1" 38) ];
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    let s = r.stats in
    Alcotest.(check int) "two late arrivals" 2 s.late_events;
    Alcotest.(check int) "one beyond the horizon, dropped" 1 s.dropped_late;
    Alcotest.(check int) "one revision pass" 1 s.revisions;
    Alcotest.(check bool)
      "converges to the batch over the accepted events" true
      (exact (Lazy.force r.intervals)
      = small_batch [ event "start" "v1" 1; event "tour" "v1" 40; event "stop" "v1" 38 ])

let test_ttl_eviction () =
  let v2_events = List.init 6 (fun i -> event "start" "v2" ((10 * i) + 1)) in
  let all = event "start" "v1" 1 :: event "stop" "v1" 5 :: v2_events in
  let svc =
    Service.create
      ~config:(Service.config ~window:10 ~step:10 ~ttl:15 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  List.iter
    (fun (e : Stream.event) ->
      Service.ingest svc [ Stream.Event e ];
      match Service.tick svc ~now:e.time with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "tick failed: %s" err)
    (List.sort (fun (a : Stream.event) b -> compare a.time b.time) all);
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    let s = r.stats in
    Alcotest.(check int) "v1 evicted" 1 s.entities_evicted;
    Alcotest.(check int) "v2 still active" 1 s.entities_active;
    Alcotest.(check bool)
      "evicted history stays frozen in the result" true
      (exact (Lazy.force r.intervals) = small_batch all)

(* A batch holding a non-ground item is rejected whole: the service must
   end up exactly where a service that never saw the batch ends up, even
   when a ground item of another entity rides in the same batch. *)
let test_rejected_batch_leaves_no_trace () =
  let rest =
    [ event "start" "v1" 4; event "start" "v2" 6; event "stop" "v1" 14; event "tour" "v2" 31 ]
  in
  let session ~poisoned =
    let svc =
      Service.create
        ~config:(Service.config ~window:10 ~step:10 ())
        ~event_description:small_ed ~knowledge:Knowledge.empty ()
    in
    if poisoned then begin
      match
        Service.ingest svc
          [
            Stream.Event { time = 0; term = Term.app "start" [ Term.Var "X" ] };
            Stream.Event (event "start" "v1" 2);
          ]
      with
      | () -> Alcotest.fail "a batch with a non-ground item was accepted"
      | exception Invalid_argument _ -> ()
    end;
    List.iter (fun e -> Service.ingest svc [ Stream.Event e ]) rest;
    match Service.drain svc with
    | Error e -> Alcotest.failf "drain failed: %s" e
    | Ok (r : Service.result) -> (exact (Lazy.force r.intervals), r.stats)
  in
  let clean, clean_stats = session ~poisoned:false in
  let poisoned, poisoned_stats = session ~poisoned:true in
  Alcotest.(check bool) "the clean run recognises something" true (clean <> []);
  Alcotest.(check bool) "same intervals as a service that never saw the batch" true
    (poisoned = clean);
  Alcotest.(check bool) "same stats as a service that never saw the batch" true
    (poisoned_stats = clean_stats)

(* --- one compile per bucket, kept across trims --- *)

let stop_ed =
  [
    Parser.parse_definition ~name:"stop"
      "initiatedAt(stopped(V) = true, T) :- happensAt(stop_start(V), T).\n\
       terminatedAt(stopped(V) = true, T) :- happensAt(stop_end(V), T).";
  ]

(* The same description over events that carry a second argument, read
   by the rules' patterns. *)
let fresh_ed =
  [
    Parser.parse_definition ~name:"stop"
      "initiatedAt(stopped(V) = true, T) :- happensAt(stop_start(V, Z), T).\n\
       terminatedAt(stopped(V) = true, T) :- happensAt(stop_end(V, Z), T).";
  ]

(* [window.compiles] over five vessels that never interact, each
   reporting once per quarter hour for 12 h, ticked at every step
   boundary and drained. With [fresh], every event carries an atom no
   other event has, so each bucket's intern table keeps growing. *)
let compiles ?(fresh = false) ~horizon () =
  let svc =
    Service.create
      ~config:(Service.config ~window:3600 ~step:1800 ~horizon ())
      ~event_description:(if fresh then fresh_ed else stop_ed)
      ~knowledge:Knowledge.empty ()
  in
  Telemetry.Metrics.reset ();
  Telemetry.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Metrics.disable ();
      Telemetry.Metrics.reset ())
    (fun () ->
      let ok what = function Ok _ -> () | Error e -> Alcotest.failf "%s failed: %s" what e in
      for k = 0 to 47 do
        let t = k * 900 in
        if k > 0 && t mod 1800 = 0 then ok "tick" (Service.tick svc ~now:t);
        Service.ingest svc
          (List.init 5 (fun v ->
               let kind = if (k + v) land 1 = 0 then "stop_start" else "stop_end" in
               let vessel = Term.Atom (Printf.sprintf "v%d" v) in
               let args =
                 if fresh then [ vessel; Term.Atom (Printf.sprintf "z%d_%d" k v) ] else [ vessel ]
               in
               Stream.Event { Stream.time = t + (60 * v); term = Term.app kind args }))
      done;
      ok "drain" (Service.drain svc);
      Option.value ~default:0
        (Telemetry.Metrics.find_counter (Telemetry.Metrics.snapshot ()) "window.compiles"))

(* Whether a bucket's stream only grows ([horizon 0]) or is trimmed
   ([horizon 1800]), its program is compiled once and then refreshed:
   each trim keeps it, since the intern table never doubles here. *)
let test_compiles_per_bucket () =
  Alcotest.(check int) "horizon 0: one compile per vessel" 5 (compiles ~horizon:0 ());
  Alcotest.(check int) "horizon 1800: one compile per vessel" 5 (compiles ~horizon:1800 ())

(* With a fresh atom per event, a bucket's intern table doubles every
   few trims, and the trim after that compiles afresh. The count is
   exact: more than one per vessel, and fewer than the 36 that a compile
   at every trim makes on this fixture (31 trims). *)
let test_compiles_on_doubling () =
  Alcotest.(check int) "horizon 1800, a fresh atom per event" 21
    (compiles ~fresh:true ~horizon:1800 ())

(* --- initially facts survive trims --- *)

let status_ed =
  [
    Parser.parse_definition ~name:"status"
      "initially(status(s1) = on).\n\
       terminatedAt(status(s1) = on, T) :- happensAt(off(s1), T).\n\
       initiatedAt(status(s1) = on, T) :- happensAt(on(s1), T).";
  ]

(* A trim moves the bucket's first event past the start of later
   queries; the [initially] fact still applies at the grid origin only.
   [off(s1)] at 100 ends the initial status and nothing turns it on
   again, so a service at horizon 1800, ticked at every 1800 s boundary
   and drained, answers what the batch run does. *)
let test_initially_after_trim () =
  let events =
    event "off" "s1" 100
    :: List.map (event "ping" "s1") [ 300; 600; 900; 20000; 20300; 20600; 21000 ]
  in
  let svc =
    Service.create
      ~config:(Service.config ~window:3600 ~step:1800 ~horizon:1800 ())
      ~event_description:status_ed ~knowledge:Knowledge.empty ()
  in
  let ok what = function Ok r -> r | Error e -> Alcotest.failf "%s failed: %s" what e in
  let next = ref 1800 in
  List.iter
    (fun (e : Stream.event) ->
      while e.time > !next do
        ignore (ok "tick" (Service.tick svc ~now:!next));
        next := !next + 1800
      done;
      Service.ingest svc [ Stream.Event e ])
    events;
  let served = exact (Lazy.force (ok "drain" (Service.drain svc)).intervals) in
  let expected =
    match
      Runtime.run
        ~config:(Runtime.config ~window:3600 ~step:1800 ())
        ~event_description:status_ed ~knowledge:Knowledge.empty ~stream:(Stream.make events) ()
    with
    | Ok (result, _) -> exact result
    | Error e -> Alcotest.failf "batch recognition failed: %s" e
  in
  Alcotest.(check bool) "batch holds status(s1) = on over (100, 101) only" true
    (expected = [ ("status(s1)", "on", [ (100, 101) ]) ]);
  Alcotest.(check bool) "served == batch" true (served = expected)

(* --- entity counts and the bounded fleet --- *)

(* Ingest [items] one at a time, ticking at every [step] boundary an
   item's time passes, as serve's [--tick-every] does. *)
let serve_items svc ~step items =
  let next = ref step in
  List.iter
    (fun item ->
      let t = Stream.item_time item in
      while t > !next do
        (match Service.tick svc ~now:!next with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "tick failed: %s" e);
        next := !next + step
      done;
      Service.ingest svc [ item ])
    items

(* An item with no entity collapses the service to one bucket; the
   vessels that come after it are still counted. *)
let test_collapse_counts_entities () =
  let svc =
    Service.create
      ~config:(Service.config ~window:10 ~step:10 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  let vessels = List.init 6 (fun i -> Printf.sprintf "v%d" i) in
  let items =
    List.mapi (fun i v -> Stream.Event (event "start" v (i + 1))) vessels
    |> List.mapi (fun i item ->
           if i = 2 then [ Stream.Event { Stream.time = 3; term = Term.Atom "ping" }; item ]
           else [ item ])
    |> List.concat
  in
  serve_items svc ~step:10 items;
  let s = Service.stats svc in
  Alcotest.(check int) "collapsed to one bucket" 1 s.buckets;
  Alcotest.(check int) "every vessel counted" (List.length vessels) s.entities_active

(* Only a ground [initially(F = V)] fact seeds a fluent, so only such a
   fact makes the description single-bucket; [initially(foo).] is
   ignored by the engine and keeps one bucket per entity. *)
let test_initially_collapses () =
  let buckets source =
    let svc =
      Service.create
        ~config:(Service.config ~window:10 ~step:10 ())
        ~event_description:[ Parser.parse_definition ~name:"i" source ]
        ~knowledge:Knowledge.empty ()
    in
    Service.ingest svc
      (List.map (fun e -> Stream.Event e) [ event "start" "v1" 1; event "start" "v2" 2 ]);
    (Service.stats svc).buckets
  in
  let rules =
    "initiatedAt(active(V) = true, T) :- happensAt(start(V), T).\n\
     terminatedAt(active(V) = true, T) :- happensAt(stop(V), T).\n"
  in
  Alcotest.(check int) "initially(foo): one bucket per entity" 2
    (buckets ("initially(foo).\n" ^ rules));
  Alcotest.(check int) "initially(status(s1) = on): one bucket" 1
    (buckets ("initially(status(s1) = on).\n" ^ rules))

(* An item whose keys reach one bucket twice and another once: each
   bucket is merged once, so every event is evaluated once. *)
let test_merge_each_bucket_once () =
  let svc =
    Service.create
      ~config:(Service.config ~window:100 ~step:100 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  let atoms = List.map (fun v -> Term.Atom v) in
  let events =
    [
      event "start" "v2" 1;
      event "start" "v1" 2;
      event "start" "v3" 3;
      { Stream.time = 4; term = Term.app "link" (atoms [ "v1"; "v3" ]) };
      { Stream.time = 5; term = Term.app "link" (atoms [ "v1"; "v2"; "v3" ]) };
    ]
  in
  Service.ingest svc (List.map (fun e -> Stream.Event e) events);
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    Alcotest.(check int) "one bucket" 1 r.stats.buckets;
    Alcotest.(check int) "every event evaluated once" (List.length events)
      r.stats.events_processed;
    Alcotest.(check int) "three entities" 3 r.stats.entities_active

(* A churning fleet: entity [i] starts at [36 i] and sends four
   [stop_end] events a quarter hour apart, so about a hundred are live at
   once and no interval is ever derived. Served at window 3600, step
   1800, horizon 1800 and ttl 3600, ticked at every step and drained;
   the service's reachable words and its stats at the drain. *)
let churn n =
  let svc =
    Service.create
      ~config:(Service.config ~window:3600 ~step:1800 ~horizon:1800 ~ttl:3600 ())
      ~event_description:stop_ed ~knowledge:Knowledge.empty ()
  in
  let events =
    List.init n (fun i ->
        List.init 4 (fun k ->
            let t = (36 * i) + (900 * k) + 7 in
            { Stream.time = t; term = Term.app "stop_end" [ Term.Atom (Printf.sprintf "c%d" i) ] }))
    |> List.concat
    |> List.stable_sort (fun (a : Stream.event) b -> Int.compare a.time b.time)
  in
  serve_items svc ~step:1800 (List.map (fun e -> Stream.Event e) events);
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    Alcotest.(check bool) "no interval derived" true (Lazy.force r.intervals = []);
    (Obj.reachable_words (Obj.repr svc), r.stats)

(* Retired buckets, their entities and their mentions are gone: four
   times the fleet leaves the service no larger. The live set is the
   same at both sizes, so the counts are exact. *)
let test_churn_bounded () =
  let words200, s200 = churn 200 in
  let words800, s800 = churn 800 in
  let counts (s : Service.stats) = (s.buckets, s.entities_active, s.entities_evicted) in
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "N = 200: buckets, active, evicted" (101, 101, 99) (counts s200);
  Alcotest.check triple "N = 800: buckets, active, evicted" (101, 101, 699) (counts s800);
  if words800 > words200 + (words200 / 100) then
    Alcotest.failf "reachable words grew with the fleet: %d at N = 200, %d at N = 800" words200
      words800

(* The flight recorder writes one [evict] record per finalisation pass,
   not one per retired bucket: a churn of 5,000 entities, which retires
   4,899 buckets, fits the default 4,096-record ring with every tick
   record, and the records' entity operands add up to the service's
   evictions. *)
let test_churn_flight_records () =
  Telemetry.Flight.set_capacity 4096;
  let _, stats = churn 5000 in
  let events = Telemetry.Flight.events () in
  Alcotest.(check int) "no record overwritten" (Telemetry.Flight.total ()) (List.length events);
  let count kind =
    List.length (List.filter (fun (e : Telemetry.Flight.event) -> e.kind = kind) events)
  in
  let evicted =
    List.fold_left
      (fun acc (e : Telemetry.Flight.event) ->
        if e.kind = Telemetry.Flight.Evict then acc + e.b else acc)
      0 events
  in
  (* [serve_items] ticks at every step boundary before the last event's
     time, then the drain passes once more. *)
  let last = (36 * 4999) + (900 * 3) + 7 in
  Alcotest.(check int) "a tick record per pass" (((last - 1) / 1800) + 1)
    (count Telemetry.Flight.Tick);
  Alcotest.(check int) "evict records count every eviction" stats.entities_evicted evicted

(* A session's cost per query follows its delta, not its history: a
   one-vessel session with a transition in every query allocates, over
   queries 1,900 to 2,000, within 1.25x of what it allocates over
   queries 100 to 200 (measured: 1.0x). Unioning each result with the
   vessel's whole span list copied a list that grows by a span every
   other query. *)
let test_process_flat () =
  let params =
    match
      Window.Session.params ~window:3600 ~step:1800 ~plan:(Engine.plan stop_ed)
        ~knowledge:Knowledge.empty ()
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "params: %s" e
  in
  let session = Window.Session.create () in
  let stream = ref (Stream.make []) and words = Array.make 2001 0. in
  for k = 1 to 2000 do
    let q = 3599 + (1800 * (k - 1)) in
    let name = if k land 1 = 0 then "stop_start" else "stop_end" in
    stream := Stream.append_items !stream [| event name "v1" (q - 900) |];
    ignore (Stream.count_in !stream ~from:0 ~until:0);
    let w0 = Gc.minor_words () in
    (match Window.Session.process params session ~stream:!stream ~lo:0 q with
    | Ok () -> ()
    | Error e -> Alcotest.failf "query %d: %s" k e);
    words.(k) <- Gc.minor_words () -. w0
  done;
  let sum a b =
    let acc = ref 0. in
    for k = a to b do
      acc := !acc +. words.(k)
    done;
    !acc
  in
  let early = sum 100 200 and late = sum 1900 2000 in
  if late > 1.25 *. early then
    Alcotest.failf "queries 1900-2000 allocate %.0f minor words, %.2fx the %.0f of 100-200" late
      (late /. early) early

(* An evicted entity is forgotten: an item that only mentions it does
   not make it active again. When it leads an item again, the earlier
   mention joins it to the mentioning entity's bucket, and the result is
   the batch run's over the same items. *)
let test_evicted_entity_forgotten () =
  let svc =
    Service.create
      ~config:(Service.config ~window:10 ~step:10 ~ttl:15 ())
      ~event_description:small_ed ~knowledge:Knowledge.empty ()
  in
  let near =
    Stream.Fluent
      ( (Term.app "near" [ Term.Atom "v2"; Term.Atom "v1" ], Term.Atom "true"),
        Interval.of_list [ (25, 30) ] )
  in
  let before =
    Stream.Event (event "start" "v1" 1)
    :: Stream.Event (event "stop" "v1" 5)
    :: List.init 3 (fun i -> Stream.Event (event "start" "v2" ((10 * i) + 1)))
  in
  let before =
    List.stable_sort (fun a b -> Int.compare (Stream.item_time a) (Stream.item_time b)) before
  in
  let after = [ Stream.Event (event "start" "v2" 31); Stream.Event (event "start" "v1" 33) ] in
  serve_items svc ~step:10 before;
  (match Service.tick svc ~now:25 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "tick failed: %s" e);
  let s = Service.stats svc in
  Alcotest.(check (pair int int))
    "v1 evicted, v2 active" (1, 1) (s.entities_evicted, s.entities_active);
  Service.ingest svc [ near ];
  let s = Service.stats svc in
  Alcotest.(check int) "a mention does not count v1 as active" 1 s.entities_active;
  List.iter (fun item -> Service.ingest svc [ item ]) after;
  match Service.drain svc with
  | Error e -> Alcotest.failf "drain failed: %s" e
  | Ok (r : Service.result) ->
    let s = r.stats in
    Alcotest.(check int) "v1 shares v2's bucket" 1 s.buckets;
    Alcotest.(check (pair int int))
      "active, evicted" (2, 1) (s.entities_active, s.entities_evicted);
    let expected =
      match
        Runtime.run
          ~config:(Runtime.config ~window:10 ~step:10 ())
          ~event_description:small_ed ~knowledge:Knowledge.empty
          ~stream:(Stream.of_items (before @ (near :: after)))
          ()
      with
      | Ok (result, _) -> exact result
      | Error e -> Alcotest.failf "batch recognition failed: %s" e
    in
    Alcotest.(check bool) "served == batch" true (exact (Lazy.force r.intervals) = expected)

(* --- revisions across merges and young buckets --- *)

(* Serve [steps] — items ingested one at a time and ticks — at window
   100, step 100 and horizon 250 over the two-rule stop description,
   drain, and check the answer against the batch run over every item. *)
let revise steps =
  let svc =
    Service.create
      ~config:(Service.config ~window:100 ~step:100 ~horizon:250 ())
      ~event_description:stop_ed ~knowledge:Knowledge.empty ()
  in
  let ok what = function Ok r -> r | Error e -> Alcotest.failf "%s failed: %s" what e in
  let items =
    List.concat_map
      (function
        | `Item e ->
          Service.ingest svc [ Stream.Event e ];
          [ Stream.Event e ]
        | `Tick now ->
          ignore (ok "tick" (Service.tick svc ~now));
          [])
      steps
  in
  let r = ok "drain" (Service.drain svc) in
  let expected =
    match
      Runtime.run
        ~config:(Runtime.config ~window:100 ~step:100 ())
        ~event_description:stop_ed ~knowledge:Knowledge.empty ~stream:(Stream.of_items items) ()
    with
    | Ok (result, _) -> exact result
    | Error e -> Alcotest.failf "batch recognition failed: %s" e
  in
  let served = exact (Lazy.force r.intervals) in
  Alcotest.(check bool) "served == batch over the accepted items" true (served = expected);
  (served, r.stats)

let at name v t = `Item (event name v t)

(* v2's bucket is born at 450, so its first checkpoint is the query at
   409; [link(v1, v2)] then merges it into v1's, and the late
   [stop_end(v1)] at 320 rolls the merged bucket back to 309, where v2
   was still pristine. *)
let test_revision_across_young_merge () =
  let link = { Stream.time = 510; term = Term.app "link" [ Term.Atom "v1"; Term.Atom "v2" ] } in
  let served, stats =
    revise
      [
        at "stop_start" "v1" 10; at "stop_end" "v1" 120; at "stop_start" "v1" 230;
        `Tick 100; `Tick 200; `Tick 300; `Tick 400;
        at "stop_start" "v2" 450; `Tick 500;
        at "stop_end" "v2" 505; `Item link;
        at "stop_end" "v1" 320; `Tick 600;
      ]
  in
  Alcotest.(check bool) "stopped(v1) and stopped(v2)" true
    (List.sort compare served
    = [
        ("stopped(v1)", "true", [ (11, 121); (231, 321) ]);
        ("stopped(v2)", "true", [ (451, 506) ]);
      ]);
  Alcotest.(check (pair int int)) "buckets, revisions" (1, 1) (stats.buckets, stats.revisions)

(* Both buckets have history when [link(v1, v2)] merges them, so the
   checkpoint the late [stop_end(v1)] at 230 rolls back to, the query at
   209, must hold the state of both. *)
let test_revision_after_merge_keeps_both () =
  let link = { Stream.time = 260; term = Term.app "link" [ Term.Atom "v1"; Term.Atom "v2" ] } in
  let served, stats =
    revise
      [
        at "stop_start" "v1" 10; at "stop_start" "v2" 20;
        `Tick 100; `Tick 200; `Tick 300;
        at "stop_end" "v2" 250; `Item link; `Tick 400;
        at "stop_end" "v1" 230; `Tick 500;
        at "stop_start" "v1" 505;
      ]
  in
  Alcotest.(check bool) "stopped(v1) and stopped(v2)" true
    (List.sort compare served
    = [
        ("stopped(v1)", "true", [ (11, 231); (506, 507) ]);
        ("stopped(v2)", "true", [ (21, 251) ]);
      ]);
  Alcotest.(check (pair int int)) "buckets, revisions" (1, 1) (stats.buckets, stats.revisions)

(* v3's first event is late, so its bucket starts with a revision; its
   first checkpoint is then the query at 309, and a second late event
   exactly at 309 rolls the bucket back to the pristine state. The last
   event moves the watermark past the last tick, so the drain ends on
   the batch grid. *)
let test_young_bucket_rolls_back_to_pristine () =
  let served, stats =
    revise
      [
        at "stop_start" "v1" 10; at "stop_end" "v1" 120; at "stop_start" "v1" 230;
        `Tick 100; `Tick 200; `Tick 300; `Tick 400;
        at "stop_start" "v3" 260; `Tick 500;
        at "stop_end" "v3" 309; `Tick 600;
        at "stop_end" "v1" 610;
      ]
  in
  Alcotest.(check bool) "stopped(v3)" true
    (List.assoc_opt "stopped(v3)" (List.map (fun (f, _, spans) -> (f, spans)) served)
    = Some [ (261, 310) ]);
  Alcotest.(check (pair int int)) "buckets, revisions" (2, 2) (stats.buckets, stats.revisions)

let suite =
  [
    Alcotest.test_case "out-of-order replay == batch (maritime)" `Quick
      test_convergence_maritime;
    Alcotest.test_case "out-of-order replay == batch (fleet)" `Quick
      test_convergence_fleet;
    Alcotest.test_case "out-of-order replay == batch (provenance on)" `Quick
      test_convergence_provenance;
    Alcotest.test_case "a session's derivation records: compiled = interpreted" `Quick
      test_session_records;
    Alcotest.test_case "beyond-horizon items are counted and dropped" `Quick
      test_beyond_horizon_drops;
    Alcotest.test_case "idle entities are evicted, history frozen" `Quick
      test_ttl_eviction;
    Alcotest.test_case "one compile per bucket, kept across trims" `Quick
      test_compiles_per_bucket;
    Alcotest.test_case "a trim compiles afresh once the intern table doubles" `Quick
      test_compiles_on_doubling;
    Alcotest.test_case "initially applies at the grid origin after trims" `Quick
      test_initially_after_trim;
    Alcotest.test_case "a rejected batch leaves no trace" `Quick
      test_rejected_batch_leaves_no_trace;
    Alcotest.test_case "a collapsed service still counts its entities" `Quick
      test_collapse_counts_entities;
    Alcotest.test_case "only a ground initially(F = V) collapses" `Quick
      test_initially_collapses;
    Alcotest.test_case "a bucket reached twice by one item merges once" `Quick
      test_merge_each_bucket_once;
    Alcotest.test_case "a churning fleet keeps only its live buckets" `Quick
      test_churn_bounded;
    Alcotest.test_case "a churn's flight records fit the ring" `Quick test_churn_flight_records;
    Alcotest.test_case "a query allocates the same late in a session" `Quick test_process_flat;
    Alcotest.test_case "an evicted entity is forgotten until it leads again" `Quick
      test_evicted_entity_forgotten;
    Alcotest.test_case "a revision crosses a merge with a young bucket" `Quick
      test_revision_across_young_merge;
    Alcotest.test_case "a revision after a merge restores both buckets" `Quick
      test_revision_after_merge_keeps_both;
    Alcotest.test_case "a young bucket rolls back to the pristine state" `Quick
      test_young_bucket_rolls_back_to_pristine;
  ]
