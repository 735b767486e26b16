(* The sharded recognition runtime: property tests for the entity
   partition (disjoint, covering, component-preserving, append
   round-trip) and the differential gate — sharded recognition is
   bit-identical to sequential on the maritime scenario and the fleet
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

let stream_of_items items =
  let entity v = Term.Atom (Printf.sprintf "v%d" v) in
  let area a = Term.Atom (Printf.sprintf "a%d" a) in
  let events =
    List.filter_map
      (function
        | Solo (t, v) -> Some { Stream.time = t; term = Term.app "move" [ entity v ] }
        | Visit (t, v, a) ->
          Some { Stream.time = t; term = Term.app "visit" [ entity v; area a ] }
        | Near _ -> None)
      items
  in
  let input_fluents =
    List.filter_map
      (function
        | Near (v, v') ->
          Some
            ( (Term.app "near" [ entity v; entity v' ], Term.Atom "true"),
              Interval.of_list [ (0, 50) ] )
        | _ -> None)
      items
  in
  Stream.make ~input_fluents events

let items_case =
  QCheck.make
    ~print:(fun items ->
      String.concat "; "
        (List.map
           (function
             | Solo (t, v) -> Printf.sprintf "move(v%d)@%d" v t
             | Visit (t, v, a) -> Printf.sprintf "visit(v%d,a%d)@%d" v a t
             | Near (v, v') -> Printf.sprintf "near(v%d,v%d)" v v')
           items))
    QCheck.Gen.(list_size (int_range 1 25) item_gen)

let shards_gen = QCheck.Gen.int_range 1 5

let case =
  QCheck.make
    ~print:(fun (items, k) -> Printf.sprintf "shards=%d items=[...%d]" k (List.length items))
    QCheck.Gen.(pair (QCheck.gen items_case) shards_gen)

(* A canonical, order-insensitive view of a stream's contents. *)
let event_multiset s =
  List.sort compare
    (List.map (fun (e : Stream.event) -> (e.time, Term.to_string e.term)) (Stream.events s))

let fluent_set s =
  List.sort compare
    (List.map
       (fun ((f, v), spans) ->
         (Term.to_string f ^ "=" ^ Term.to_string v, Interval.to_list spans))
       (Stream.input_fluents s))

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

let prop_partition_disjoint_cover =
  prop "partition shards are disjoint and cover the stream" 200 case (fun (items, k) ->
      let s = stream_of_items items in
      let shards = Stream.partition ~shards:k s in
      List.length shards <= max 1 k
      && event_multiset s = List.sort compare (List.concat_map event_multiset shards)
      && fluent_set s = List.sort compare (List.concat_map fluent_set shards))

let prop_partition_never_splits =
  prop "partition never splits an entity-connected component" 200 case (fun (items, k) ->
      let s = stream_of_items items in
      let shards = Stream.partition ~shards:k s in
      (* Every oracle component's keys must live in exactly one shard:
         a key "lives" in the shard whose events or fluents mention it. *)
      let shard_of_key key =
        List.concat
          (List.mapi
             (fun i shard ->
               let mentions term =
                 let rec walk t =
                   Term.equal t key
                   || match t with Term.Compound (_, args) -> List.exists walk args | _ -> false
                 in
                 walk term
               in
               if
                 List.exists (fun (e : Stream.event) -> mentions e.term) (Stream.events shard)
                 || List.exists
                      (fun ((f, v), _) -> mentions f || mentions v)
                      (Stream.input_fluents shard)
               then [ i ]
               else [])
             shards)
      in
      List.for_all
        (fun component ->
          match List.sort_uniq compare (List.concat_map shard_of_key component) with
          | [] | [ _ ] -> true
          | _ -> false)
        (oracle_components s))

let prop_partition_roundtrip =
  prop "folding shards back with append round-trips the stream" 200 case (fun (items, k) ->
      let s = stream_of_items items in
      match Stream.partition ~shards:k s with
      | [] -> false
      | first :: rest ->
        let folded = List.fold_left Stream.append first rest in
        event_multiset folded = event_multiset s
        && fluent_set folded = fluent_set s
        && Stream.extent folded = Stream.extent s
        && Stream.size folded = Stream.size s)

let test_partition_unsplittable () =
  (* A zero-argument event cannot be attributed to an entity: the stream
     must come back whole. *)
  let s =
    Stream.make
      [
        { Stream.time = 1; term = Term.app "move" [ Term.Atom "v1" ] };
        { Stream.time = 2; term = Term.Atom "tick" };
        { Stream.time = 3; term = Term.app "move" [ Term.Atom "v2" ] };
      ]
  in
  Alcotest.(check int) "single shard" 1 (List.length (Stream.partition ~shards:4 s));
  (* Pairwise fluents keep both entities together. *)
  let pairwise =
    Stream.make
      ~input_fluents:
        [
          ( (Term.app "near" [ Term.Atom "v1"; Term.Atom "v2" ], Term.Atom "true"),
            Interval.of_list [ (0, 9) ] );
        ]
      [
        { Stream.time = 1; term = Term.app "move" [ Term.Atom "v1" ] };
        { Stream.time = 2; term = Term.app "move" [ Term.Atom "v2" ] };
        { Stream.time = 3; term = Term.app "move" [ Term.Atom "v3" ] };
      ]
  in
  match Stream.partition ~shards:4 pairwise with
  | [ a; b ] ->
    let sizes = List.sort compare [ Stream.size a; Stream.size b ] in
    Alcotest.(check (list int)) "v1-v2 together, v3 alone" [ 1; 2 ] sizes
  | shards -> Alcotest.failf "expected 2 shards, got %d" (List.length shards)

(* --- differential: sharded == sequential, telemetry on and off --- *)

let exact result =
  List.map
    (fun ((f, v), spans) -> (Term.to_string f, Term.to_string v, Interval.to_list spans))
    result

let recognise ?shards ~jobs ~event_description ~knowledge ~stream () =
  let config = Runtime.config ~window:3600 ~step:1800 ~jobs ?shards () in
  match Runtime.run ~config ~event_description ~knowledge ~stream () with
  | Ok (result, stats) -> (exact result, stats)
  | Error e -> Alcotest.failf "recognition (jobs=%d) failed: %s" jobs e

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

(* [jobs] is clamped to the host's cores, so the partition is forced
   with an explicit [shards]: the sharded evaluation and the canonical
   merge must stay exercised (and bit-identical) on any host, however
   many domains actually run. *)
let check_differential ~name ~event_description ~knowledge ~stream =
  let sequential, _ = recognise ~jobs:1 ~event_description ~knowledge ~stream () in
  Alcotest.(check bool) (name ^ ": sequential recognises something") true (sequential <> []);
  List.iter
    (fun jobs ->
      let sharded, stats =
        recognise ~jobs ~shards:jobs ~event_description ~knowledge ~stream ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d actually sharded" name jobs)
        true (stats.Runtime.shards > 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d bit-identical to sequential" name jobs)
        true
        (sharded = sequential);
      (* And again with telemetry collecting: per-domain accumulators
         must not disturb recognition, and worker spans must land on
         worker-tagged tracks in the shared recorder. *)
      let with_telemetry =
        scoped_telemetry (fun () ->
            let r, _ = recognise ~jobs ~shards:jobs ~event_description ~knowledge ~stream () in
            let tids =
              List.sort_uniq compare
                (List.filter_map
                   (fun (i : Telemetry.Trace.info) ->
                     if i.span_name = "window.query" then Some i.span_tid else None)
                   (Telemetry.Trace.infos ()))
            in
            (* One trace track per domain the host actually granted: all
               requested on a many-core machine, a single track when the
               clamp serialised the shards. *)
            let parallel = min jobs (Stdlib.Domain.recommended_domain_count ()) > 1 in
            Alcotest.(check bool)
              (Printf.sprintf "%s: jobs=%d one track per granted domain" name jobs)
              true
              (if parallel then List.length tids > 1 else List.length tids = 1);
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
      Window.run ~window:3600 ~step:1800 ~event_description:ed ~knowledge:data.knowledge
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
    | Ok (r, s) -> (exact r, s.Runtime.queries, s.Runtime.events_processed)
    | Error e -> Alcotest.failf "Runtime.run failed: %s" e
  in
  Alcotest.(check bool) "jobs=1 facade is exactly Window.run" true (via_window = via_runtime)

let test_config_validation () =
  let stream = Stream.make [ { Stream.time = 1; term = Term.app "e" [ Term.Atom "x" ] } ] in
  (match
     Runtime.run
       ~config:{ Runtime.default with jobs = 0 }
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
    prop_partition_disjoint_cover;
    prop_partition_never_splits;
    prop_partition_roundtrip;
    Alcotest.test_case "unsplittable streams and pairwise fluents" `Quick
      test_partition_unsplittable;
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
