(* The entity-grouped recognition runtime: property tests for the
   service's router, the one entity partitioner (buckets are exactly the
   entity-connected components; seeding groups them without losing or
   repeating an event), and the differential gate — grouped recognition
   is bit-identical to sequential on the maritime scenario and the fleet
   synthetic day, with telemetry enabled and disabled. *)

open Rtec

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* --- a generator of entity-structured streams ---

   Events over a handful of entities [v0..v7]: solo events [move(v)],
   attributed events [visit(v, a)] sharing attribute constants across
   entities (areas must never glue components together), and pairwise
   input fluents [near(v, v') = true] (which must). *)

type item =
  | Solo of int * int  (* time, entity *)
  | Visit of int * int * int  (* time, entity, area *)
  | Near of int * int  (* entity, entity: an input fluent over [0, 50] *)

let item_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun t v -> Solo (t, v)) (int_bound 100) (int_bound 7);
        map3 (fun t v a -> Visit (t, v, a)) (int_bound 100) (int_bound 7) (int_bound 2);
        map2 (fun v v' -> Near (v, v')) (int_bound 7) (int_bound 7);
      ])

(* The generated items as ingestion items, in generation (arrival)
   order. *)
let stream_items items =
  let entity v = Term.Atom (Printf.sprintf "v%d" v) in
  let area a = Term.Atom (Printf.sprintf "a%d" a) in
  List.map
    (function
      | Solo (t, v) -> Stream.Event { Stream.time = t; term = Term.app "move" [ entity v ] }
      | Visit (t, v, a) ->
        Stream.Event { Stream.time = t; term = Term.app "visit" [ entity v; area a ] }
      | Near (v, v') ->
        Stream.Fluent
          ( (Term.app "near" [ entity v; entity v' ], Term.Atom "true"),
            Interval.of_list [ (0, 50) ] ))
    items

let stream_of_items items = Stream.of_items (stream_items items)

let print_items items =
  String.concat "; "
    (List.map
       (function
         | Solo (t, v) -> Printf.sprintf "move(v%d)@%d" v t
         | Visit (t, v, a) -> Printf.sprintf "visit(v%d,a%d)@%d" v a t
         | Near (v, v') -> Printf.sprintf "near(v%d,v%d)" v v')
       items)

let items_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 25) item_gen

(* Items plus a small integer: a batch split point, or a group count. *)
let case =
  QCheck.make
    ~print:(fun (items, k) -> Printf.sprintf "k=%d items=[%s]" k (print_items items))
    QCheck.Gen.(pair items_gen (int_range 1 5))

(* Independent component oracle: items are connected when they share an
   entity key (a term leading some event or input fluent), computed by
   fixpoint over entity sets rather than union-find. *)
let oracle_components s =
  let leads =
    List.filter_map
      (fun (e : Stream.event) ->
        match e.term with Term.Compound (_, a :: _) -> Some a | _ -> None)
      (Stream.events s)
    @ List.filter_map
        (fun ((f, _), _) -> match f with Term.Compound (_, a :: _) -> Some a | _ -> None)
        (Stream.input_fluents s)
  in
  let is_key t = List.exists (Term.equal t) leads in
  let keys_of term =
    let rec walk acc t =
      let acc = if is_key t then t :: acc else acc in
      match t with Term.Compound (_, args) -> List.fold_left walk acc args | _ -> acc
    in
    walk [] term
  in
  let items =
    List.map (fun (e : Stream.event) -> keys_of e.term) (Stream.events s)
    @ List.map
        (fun ((f, v), _) -> keys_of f @ keys_of v)
        (Stream.input_fluents s)
  in
  (* Merge overlapping key sets to a fixpoint. *)
  let rec merge groups =
    let changed = ref false in
    let groups =
      List.fold_left
        (fun acc g ->
          let overlapping, rest =
            List.partition (fun g' -> List.exists (fun k -> List.exists (Term.equal k) g') g) acc
          in
          match overlapping with
          | [] -> g :: rest
          | _ ->
            changed := true;
            List.concat (g :: overlapping) :: rest)
        [] groups
    in
    if !changed then merge groups else groups
  in
  merge (List.filter (fun g -> g <> []) items)

(* --- the router: service buckets are the entity components --- *)

let scoped_telemetry f =
  Telemetry.Trace.reset ();
  Telemetry.Trace.enable ();
  Telemetry.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Trace.disable ();
      Telemetry.Metrics.disable ();
      Telemetry.Trace.reset ();
      Telemetry.Metrics.reset ())
    f

let service () =
  Runtime.Service.create ~config:(Runtime.Service.config ()) ~event_description:[]
    ~knowledge:Knowledge.empty ()

let buckets svc = (Runtime.Service.stats svc).buckets

(* Items arrive in generation order, mixing events and fluents, split
   into two batches: keys first seen after a mention, merges inside a
   batch and merges across batches are all exercised. *)
let prop_router_components =
  prop "router buckets are exactly the entity components" 200 case (fun (items, k) ->
      let svc = service () in
      let arrivals = stream_items items in
      let cut = k mod (List.length arrivals + 1) in
      Runtime.Service.ingest svc (List.filteri (fun i _ -> i < cut) arrivals);
      Runtime.Service.ingest svc (List.filteri (fun i _ -> i >= cut) arrivals);
      buckets svc = List.length (oracle_components (stream_of_items items)))

(* Grouping never loses or repeats an event: without a window the drain
   runs one query over the whole extent per bucket, so the window-events
   summed over the buckets count every event exactly once. *)
let prop_seed_groups =
  prop "seeded groups are bounded and evaluate every event once" 200 case
    (fun (items, k) ->
      let s = stream_of_items items in
      let svc = service () in
      Runtime.Service.seed svc ~groups:k s;
      let n = buckets svc in
      1 <= n && n <= k
      &&
      match Runtime.Service.drain svc with
      | Ok r -> r.stats.events_processed = Stream.size s
      | Error e -> QCheck.Test.fail_report e)

let test_unsplittable () =
  let move t v = { Stream.time = t; term = Term.app "move" [ Term.Atom v ] } in
  (* A zero-argument event cannot be attributed to an entity: the
     service collapses to one bucket. *)
  let svc = service () in
  Runtime.Service.seed svc ~groups:4
    (Stream.make [ move 1 "v1"; { Stream.time = 2; term = Term.Atom "tick" }; move 3 "v2" ]);
  Alcotest.(check int) "single bucket" 1 (buckets svc);
  (* So is an empty stream: one bucket, as at [groups:1]. *)
  let svc = service () in
  Runtime.Service.seed svc ~groups:4 (Stream.make []);
  Alcotest.(check int) "empty stream, single bucket" 1 (buckets svc);
  (* Pairwise fluents keep both entities together; the drain's one
     [window.query] per bucket reports each bucket's event count. *)
  let pairwise =
    Stream.make
      ~input_fluents:
        [
          ( (Term.app "near" [ Term.Atom "v1"; Term.Atom "v2" ], Term.Atom "true"),
            Interval.of_list [ (0, 9) ] );
        ]
      [ move 1 "v1"; move 2 "v2"; move 3 "v3" ]
  in
  let svc = service () in
  Runtime.Service.seed svc ~groups:4 pairwise;
  Alcotest.(check int) "two buckets" 2 (buckets svc);
  let sizes =
    scoped_telemetry (fun () ->
        ignore (Runtime.Service.drain svc);
        List.filter_map
          (fun (i : Telemetry.Trace.info) ->
            match (i.span_name, List.assoc_opt "events" i.span_args) with
            | "window.query", Some (Telemetry.Trace.Int n) -> Some n
            | _ -> None)
          (Telemetry.Trace.infos ()))
  in
  Alcotest.(check (list int)) "v1-v2 together, v3 alone" [ 1; 2 ] (List.sort compare sizes)

(* --- differential: grouped == sequential, telemetry on and off --- *)

let exact result =
  List.map
    (fun ((f, v), spans) -> (Term.to_string f, Term.to_string v, Interval.to_list spans))
    result

let recognise ~jobs ~event_description ~knowledge ~stream () =
  let config = Runtime.config ~window:3600 ~step:1800 ~jobs () in
  match Runtime.run ~config ~event_description ~knowledge ~stream () with
  | Ok (result, stats) -> (exact result, stats)
  | Error e -> Alcotest.failf "recognition (jobs=%d) failed: %s" jobs e

(* [jobs] sets the group count directly, so the grouped evaluation and
   the canonical merge stay exercised (and bit-identical) on any host,
   however many domains the clamp grants. *)
let check_differential ~name ~event_description ~knowledge ~stream =
  let sequential, _ = recognise ~jobs:1 ~event_description ~knowledge ~stream () in
  Alcotest.(check bool) (name ^ ": sequential recognises something") true (sequential <> []);
  List.iter
    (fun jobs ->
      let sharded, stats = recognise ~jobs ~event_description ~knowledge ~stream () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d actually sharded" name jobs)
        true (stats.Runtime.Service.buckets > 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d bit-identical to sequential" name jobs)
        true
        (sharded = sequential);
      (* And again with telemetry collecting: per-domain accumulators
         must not disturb recognition, and worker spans must land on
         worker-tagged tracks in the shared recorder. *)
      let with_telemetry =
        scoped_telemetry (fun () ->
            let r, stats = recognise ~jobs ~event_description ~knowledge ~stream () in
            let tids =
              List.filter_map
                (fun (i : Telemetry.Trace.info) ->
                  if i.span_name = "window.query" then Some i.span_tid else None)
                (Telemetry.Trace.infos ())
            in
            (* The pool balances tasks dynamically, so which granted
               domain runs a bucket is up to the schedule; these checks
               hold under any schedule. [pool telemetry across real
               domains] asserts true concurrency. *)
            let granted = min jobs (Stdlib.Domain.recommended_domain_count ()) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: jobs=%d spans on granted domains' tracks" name jobs)
              true
              (List.for_all (fun tid -> 0 <= tid && tid < granted) tids);
            Alcotest.(check int)
              (Printf.sprintf "%s: jobs=%d one window.query span per query" name jobs)
              stats.Runtime.Service.queries (List.length tids);
            Alcotest.(check bool)
              (Printf.sprintf "%s: jobs=%d worker metrics merged at join" name jobs)
              true
              (match
                 Telemetry.Metrics.find_counter (Telemetry.Metrics.snapshot ())
                   "window.queries"
               with
              | Some n -> n > 0
              | None -> false);
            r)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d bit-identical with telemetry on" name jobs)
        true
        (with_telemetry = sequential))
    [ 2; 4 ]

let test_differential_maritime () =
  let data =
    Maritime.Dataset.generate ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ()
  in
  check_differential ~name:"maritime" ~event_description:Maritime.Gold.event_description
    ~knowledge:data.knowledge ~stream:data.stream

let test_differential_fleet () =
  let stream, knowledge = Fleet.generate () in
  let event_description = Domain.event_description Fleet.domain in
  check_differential ~name:"fleet" ~event_description ~knowledge ~stream

(* The pool itself is never clamped — [Runtime.run] caps its fan-out at
   the host's cores, so on a small CI host the multi-domain machinery
   (per-domain telemetry accumulators, exact merge at join, worker-track
   spans) would otherwise go unexercised. One task per domain, held at a
   barrier until every domain has started its task, so exactly [jobs]
   domains demonstrably run concurrently. *)
let test_pool_multi_domain_telemetry () =
  let jobs = 4 in
  scoped_telemetry (fun () ->
      let counter = Telemetry.Metrics.counter "test.pool.ticks" in
      let started = Atomic.make 0 in
      let results =
        Runtime.Pool.map ~jobs
          (fun _ n ->
            Atomic.incr started;
            while Atomic.get started < jobs do
              Stdlib.Domain.cpu_relax ()
            done;
            Telemetry.Metrics.incr counter;
            Telemetry.Trace.with_span "test.pool.task" (fun () -> n * 2))
          (Array.init jobs Fun.id)
      in
      Alcotest.(check bool) "order preserved" true
        (results = Array.init jobs (fun i -> i * 2));
      Alcotest.(check (option int))
        "worker counters merged exactly" (Some jobs)
        (Telemetry.Metrics.find_counter (Telemetry.Metrics.snapshot ()) "test.pool.ticks");
      let tids =
        List.sort_uniq compare
          (List.filter_map
             (fun (i : Telemetry.Trace.info) ->
               if i.span_name = "test.pool.task" then Some i.span_tid else None)
             (Telemetry.Trace.infos ()))
      in
      Alcotest.(check int) "one span track per domain" jobs (List.length tids))

(* --- the facade --- *)

let test_sequential_matches_window_run () =
  let data =
    Maritime.Dataset.generate ~config:{ Maritime.Dataset.seed = 5; replicas = 1; nominal = 0 } ()
  in
  let ed = Maritime.Gold.event_description in
  let via_window =
    match
      Oracle.Window.run ~window:3600 ~step:1800 ~event_description:ed ~knowledge:data.knowledge
        ~stream:data.stream ()
    with
    | Ok (r, s) -> (exact r, s.Window.queries, s.Window.events_processed)
    | Error e -> Alcotest.failf "Window.run failed: %s" e
  in
  let via_runtime =
    match
      Runtime.run
        ~config:(Runtime.config ~window:3600 ~step:1800 ())
        ~event_description:ed ~knowledge:data.knowledge ~stream:data.stream ()
    with
    | Ok (r, s) -> (exact r, s.Runtime.Service.queries, s.Runtime.Service.events_processed)
    | Error e -> Alcotest.failf "Runtime.run failed: %s" e
  in
  Alcotest.(check bool) "jobs=1 facade is exactly Window.run" true (via_window = via_runtime)

let test_config_validation () =
  let stream = Stream.make [ { Stream.time = 1; term = Term.app "e" [ Term.Atom "x" ] } ] in
  (match
     Runtime.run
       ~config:{ Runtime.default with Runtime.Service.jobs = 0 }
       ~event_description:[] ~knowledge:Knowledge.empty ~stream ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "jobs=0 must be rejected");
  match
    Runtime.run
      ~config:(Runtime.config ~window:0 ~jobs:2 ())
      ~event_description:[] ~knowledge:Knowledge.empty ~stream ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "window=0 must be rejected"

let suite =
  [
    prop_router_components;
    prop_seed_groups;
    Alcotest.test_case "unsplittable streams and pairwise fluents" `Quick test_unsplittable;
    Alcotest.test_case "sharded vs sequential differential (maritime)" `Quick
      test_differential_maritime;
    Alcotest.test_case "sharded vs sequential differential (fleet)" `Quick
      test_differential_fleet;
    Alcotest.test_case "pool telemetry across real domains" `Quick
      test_pool_multi_domain_telemetry;
    Alcotest.test_case "jobs=1 facade is exactly Window.run" `Quick
      test_sequential_matches_window_run;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
