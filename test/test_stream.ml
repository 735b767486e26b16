open Rtec

let ev time src = { Stream.time; term = Parser.parse_term src }

let test_make_rejects_nonground () =
  Alcotest.(check bool) "non-ground event rejected" true
    (try
       ignore (Stream.make [ ev 1 "entersArea(V, a1)" ]);
       false
     with Invalid_argument _ -> true)

let sample =
  Stream.make
    [ ev 10 "ping(a)"; ev 20 "ping(b)"; ev 20 "pong(a)"; ev 30 "ping(a)"; ev 40 "pong(b)" ]

let test_extent_and_size () =
  Alcotest.(check (pair int int)) "extent" (10, 40) (Stream.extent sample);
  Alcotest.(check int) "size" 5 (Stream.size sample);
  Alcotest.(check (pair int int)) "empty extent" (0, 0) (Stream.extent (Stream.make []))

let test_events_in_boundaries () =
  let count ~from ~until =
    List.length (Stream.events_in sample ~functor_:("ping", 1) ~from ~until)
  in
  Alcotest.(check int) "inclusive bounds" 3 (count ~from:10 ~until:30);
  Alcotest.(check int) "from boundary" 2 (count ~from:20 ~until:30);
  Alcotest.(check int) "until boundary" 2 (count ~from:10 ~until:20);
  Alcotest.(check int) "empty range" 0 (count ~from:21 ~until:29);
  Alcotest.(check int) "unknown functor" 0
    (List.length (Stream.events_in sample ~functor_:("zap", 1) ~from:0 ~until:100))

let test_events_at () =
  Alcotest.(check int) "two indicators at t=20" 1
    (List.length (Stream.events_at sample ~functor_:("ping", 1) ~time:20));
  Alcotest.(check int) "pong at t=20" 1
    (List.length (Stream.events_at sample ~functor_:("pong", 1) ~time:20))

let test_indicators_and_append () =
  Alcotest.(check int) "two indicators" 2 (List.length (Stream.indicators sample));
  let more = Stream.make [ ev 50 "zap(c)" ] in
  let combined = Stream.append sample more in
  Alcotest.(check int) "append grows" 6 (Stream.size combined);
  Alcotest.(check (pair int int)) "extent extends" (10, 50) (Stream.extent combined)

let test_count_in () =
  Alcotest.(check int) "all events" 5 (Stream.count_in sample ~from:0 ~until:100);
  Alcotest.(check int) "inclusive bounds" 3 (Stream.count_in sample ~from:20 ~until:30);
  Alcotest.(check int) "empty range" 0 (Stream.count_in sample ~from:21 ~until:29);
  Alcotest.(check int) "inverted range" 0 (Stream.count_in sample ~from:30 ~until:20);
  Alcotest.(check int) "agrees with a filter over events"
    (List.length
       (List.filter
          (fun (e : Stream.event) -> e.time >= 15 && e.time <= 35)
          (Stream.events sample)))
    (Stream.count_in sample ~from:15 ~until:35)

let test_input_fluent_dedup () =
  let fv = (Parser.parse_term "proximity(a, b)", Term.Atom "true") in
  (* make: duplicate keys union their interval lists *)
  let s =
    Stream.make
      ~input_fluents:
        [ (fv, Interval.of_list [ (1, 5) ]); (fv, Interval.of_list [ (4, 9) ]) ]
      [ ev 1 "ping(a)" ]
  in
  (match Stream.input_fluents s with
  | [ (_, spans) ] ->
    Alcotest.(check (list (pair int int))) "make unions duplicates" [ (1, 9) ]
      (Interval.to_list spans)
  | l -> Alcotest.failf "expected one input fluent, got %d" (List.length l));
  (* append: keys common to both streams are merged, not concatenated *)
  let a = Stream.make ~input_fluents:[ (fv, Interval.of_list [ (1, 3) ]) ] [ ev 1 "ping(a)" ] in
  let b = Stream.make ~input_fluents:[ (fv, Interval.of_list [ (7, 9) ]) ] [ ev 2 "pong(b)" ] in
  match Stream.input_fluents (Stream.append a b) with
  | [ (_, spans) ] ->
    Alcotest.(check (list (pair int int))) "append unions duplicates" [ (1, 3); (7, 9) ]
      (Interval.to_list spans)
  | l -> Alcotest.failf "expected one input fluent, got %d" (List.length l)

(* Two fluents that print alike ([Term.pp] keeps six significant digits
   of a real, and prints an atom without quotes) are still two keys. *)
let test_input_fluent_dedup_exact () =
  let src =
    "holdsFor(speed(v1, 1.2345671) = true, [[0, 10]]).\n\
     holdsFor(speed(v1, 1.2345672) = true, [[20, 30]]).\n"
  in
  let spans_of s =
    List.map (fun (_, sp) -> Interval.to_list sp) (Stream.input_fluents s)
  in
  let two = [ [ (0, 10) ]; [ (20, 30) ] ] in
  let fluents =
    List.filter_map (function Stream.Fluent (fv, sp) -> Some (fv, sp) | Event _ -> None)
      (Io.items_of_string src)
  in
  Alcotest.(check int) "read as two fluents" 2 (List.length fluents);
  Alcotest.(check (list (list (pair int int)))) "of_items keeps both" two
    (spans_of (Stream.of_items (Io.items_of_string src)));
  Alcotest.(check (list (list (pair int int)))) "make keeps both" two
    (spans_of (Stream.make ~input_fluents:fluents []));
  Alcotest.(check (list (list (pair int int)))) "append_items keeps both" two
    (spans_of (Stream.append_items (Stream.make []) ~input_fluents:fluents [||]));
  let fv v = (Term.app "level" [ Term.Atom "v1"; v ], Term.Atom "true") in
  Alcotest.(check (list (list (pair int int)))) "an atom is not an integer" two
    (spans_of
       (Stream.make
          ~input_fluents:
            [
              (fv (Term.Atom "1"), Interval.of_list [ (0, 10) ]);
              (fv (Term.Int 1), Interval.of_list [ (20, 30) ]);
            ]
          []))

let test_events_sorted () =
  let shuffled = Stream.make [ ev 30 "e(a)"; ev 10 "e(b)"; ev 20 "e(c)" ] in
  let times = List.map (fun (e : Stream.event) -> e.time) (Stream.events shuffled) in
  Alcotest.(check (list int)) "sorted by time" [ 10; 20; 30 ] times

(* --- knowledge --- *)

let kb =
  Knowledge.of_source
    "areaType(a1, fishing). areaType(a2, natura). vesselType(v1, tug). \
     thresholds(speedMax, 5.0)."

let test_knowledge_solve () =
  let pattern = Parser.parse_term "areaType(A, fishing)" in
  let solutions = Knowledge.solve kb Subst.empty pattern in
  Alcotest.(check int) "one fishing area" 1 (List.length solutions);
  let all = Knowledge.solve kb Subst.empty (Parser.parse_term "areaType(A, T)") in
  Alcotest.(check int) "two areas" 2 (List.length all);
  Alcotest.(check int) "no match" 0
    (List.length (Knowledge.solve kb Subst.empty (Parser.parse_term "areaType(a9, T)")))

let test_knowledge_solve_respects_subst () =
  let s = Option.get (Unify.unify (Term.Var "A") (Term.Atom "a2")) in
  let solutions = Knowledge.solve kb s (Parser.parse_term "areaType(A, T)") in
  Alcotest.(check int) "bound variable restricts" 1 (List.length solutions);
  match solutions with
  | [ s' ] ->
    Alcotest.(check string) "type of a2" "natura"
      (Term.to_string (Subst.apply s' (Term.Var "T")))
  | _ -> Alcotest.fail "expected one solution"

let test_knowledge_threshold () =
  Alcotest.(check (option (float 1e-9))) "threshold lookup" (Some 5.0)
    (Knowledge.threshold kb "speedMax");
  Alcotest.(check (option (float 1e-9))) "missing threshold" None
    (Knowledge.threshold kb "nope")

let test_knowledge_rejects () =
  Alcotest.(check bool) "non-ground fact rejected" true
    (try
       ignore (Knowledge.add (Parser.parse_term "areaType(A, fishing)") Knowledge.empty);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rule rejected as fact source" true
    (try
       ignore (Knowledge.of_source "p(a) :- q(a).");
       false
     with Invalid_argument _ -> true)

let test_knowledge_size_facts () =
  Alcotest.(check int) "size" 4 (Knowledge.size kb);
  Alcotest.(check int) "facts listed" 4 (List.length (Knowledge.facts kb))

(* --- serialisation --- *)

let test_io_roundtrip () =
  let stream =
    Stream.make
      ~input_fluents:
        [ ((Parser.parse_term "proximity(a, b)", Term.Atom "true"),
           Interval.of_list [ (3, 9); (12, 20) ]);
          ((Parser.parse_term "proximity(b, c)", Term.Atom "true"),
           [ Interval.make 5 Interval.infinity ]) ]
      [ ev 10 "ping(a)"; ev 20 "pong(b)" ]
  in
  let reread = Io.stream_of_string (Io.stream_to_string stream) in
  Alcotest.(check int) "event count" (Stream.size stream) (Stream.size reread);
  Alcotest.(check bool) "events equal" true
    (List.for_all2
       (fun (a : Stream.event) (b : Stream.event) ->
         a.time = b.time && Term.equal a.term b.term)
       (Stream.events stream) (Stream.events reread));
  Alcotest.(check int) "fluent count" 2 (List.length (Stream.input_fluents reread));
  let spans_of s (f, v) =
    List.find_map
      (fun ((f', v'), spans) ->
        if Term.equal f f' && Term.equal v v' then Some spans else None)
      (Stream.input_fluents s)
  in
  let fv = (Parser.parse_term "proximity(b, c)", Term.Atom "true") in
  Alcotest.(check bool) "open interval survives" true
    (spans_of stream fv = spans_of reread fv)

let dataset_small =
  lazy
    (Maritime.Dataset.generate
       ~config:{ Maritime.Dataset.seed = 5; replicas = 1; nominal = 0 } ())

let test_io_dataset_roundtrip () =
  let data = Lazy.force dataset_small in
  let reread = Io.stream_of_string (Io.stream_to_string data.Maritime.Dataset.stream) in
  Alcotest.(check int) "dataset stream round-trips"
    (Stream.size data.stream) (Stream.size reread);
  let kb = Io.knowledge_of_string (Io.knowledge_to_string data.knowledge) in
  Alcotest.(check int) "dataset knowledge round-trips"
    (Knowledge.size data.knowledge) (Knowledge.size kb)

let test_io_rejects_garbage () =
  Alcotest.(check bool) "unexpected fact rejected" true
    (try
       ignore (Io.stream_of_string "frobnicate(a).");
       false
     with Invalid_argument _ -> true)

(* --- qcheck property: amortised appends == one-shot build ---

   A random ingestion trace — batches of events (tiny vocabulary, so
   indicators collide and equal-time ties are common) and input-fluent
   items, with [drop_before] interleaved — applied incrementally with
   [append_items] must be indistinguishable from a one-shot [of_items]
   build over the same surviving items: same events in the same order
   (ties included), same per-indicator indexes, extent, counts and
   fluents. [drop_before] forces the pending tail mid-trace, so the
   trace also exercises query-after-burst packing, not just one final
   merge. *)

type trace_step =
  | Batch of Stream.event list * ((Term.t * Term.t) * Interval.t) list
  | Drop of int

let gen_event =
  QCheck.Gen.(
    map3
      (fun name arg time -> { Stream.time; term = Term.app name [ Term.Atom arg ] })
      (oneofl [ "ping"; "pong"; "zap" ])
      (oneofl [ "a"; "b"; "c"; "d" ])
      (int_range 0 120))

let gen_fluent =
  QCheck.Gen.(
    map3
      (fun a b (s, len) ->
        ( (Term.app "proximity" [ Term.Atom a; Term.Atom b ], Term.Atom "true"),
          Interval.of_list [ (s, s + len + 1) ] ))
      (oneofl [ "a"; "b" ])
      (oneofl [ "c"; "d" ])
      (pair (int_range 0 100) (int_range 0 20)))

let gen_step =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun evs fls -> Batch (evs, fls))
            (list_size (int_range 0 8) gen_event)
            (list_size (int_range 0 2) gen_fluent) );
        (1, map (fun t -> Drop t) (int_range 0 120));
      ])

let arbitrary_trace =
  QCheck.make
    ~print:(fun steps ->
      String.concat "; "
        (List.map
           (function
             | Batch (evs, fls) ->
               Printf.sprintf "batch[%s | %d fluents]"
                 (String.concat ", "
                    (List.map
                       (fun (e : Stream.event) ->
                         Printf.sprintf "%s@%d" (Term.to_string e.term) e.time)
                       evs))
                 (List.length fls)
             | Drop t -> Printf.sprintf "drop<%d" t)
           steps))
    QCheck.Gen.(list_size (int_range 1 10) gen_step)

let incremental steps =
  List.fold_left
    (fun s -> function
      | Batch (evs, fls) -> Stream.append_items s ~input_fluents:fls (Array.of_list evs)
      | Drop t -> Stream.drop_before s t)
    (Stream.of_items []) steps

(* The reference applies the documented semantics literally: each batch
   is stably sorted by time (append_items' in-batch ordering), batches
   concatenate in arrival order, a drop filters only what has arrived so
   far, and the single [of_items] at the end owes its tie order to the
   concatenation (its stable sort keeps insertion order). *)
let reference steps =
  let evs, fls =
    List.fold_left
      (fun (evs, fls) -> function
        | Batch (b_evs, b_fls) ->
          ( evs
            @ List.stable_sort (fun (a : Stream.event) b -> compare a.time b.time) b_evs,
            fls @ b_fls )
        | Drop t -> (List.filter (fun (e : Stream.event) -> e.time >= t) evs, fls))
      ([], []) steps
  in
  Stream.of_items
    (List.map (fun e -> Stream.Event e) evs
    @ List.map (fun (fv, spans) -> Stream.Fluent (fv, spans)) fls)

let observe s =
  let norm_events evs =
    List.map (fun (e : Stream.event) -> (e.time, Term.to_string e.term)) evs
  in
  ( norm_events (Stream.events s),
    Stream.size s,
    Stream.extent s,
    List.sort compare (Stream.indicators s),
    List.map
      (fun functor_ ->
        ( norm_events (Array.to_list (Stream.indexed s ~functor_)),
          norm_events (Stream.events_in s ~functor_ ~from:20 ~until:90),
          norm_events (Stream.events_at s ~functor_ ~time:60) ))
      [ ("ping", 1); ("pong", 1); ("zap", 1) ],
    Stream.count_in s ~from:15 ~until:100,
    List.sort compare
      (List.map
         (fun ((f, v), spans) ->
           (Term.to_string f, Term.to_string v, Interval.to_list spans))
         (Stream.input_fluents s)) )

let prop_appends_match_build steps = observe (incremental steps) = observe (reference steps)

let qtest name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:500 arb law)

let suite =
  [
    Alcotest.test_case "non-ground events rejected" `Quick test_make_rejects_nonground;
    qtest "random appends + drop_before == one of_items build" arbitrary_trace
      prop_appends_match_build;
    Alcotest.test_case "io: stream round-trip" `Quick test_io_roundtrip;
    Alcotest.test_case "io: dataset round-trip" `Quick test_io_dataset_roundtrip;
    Alcotest.test_case "io: garbage rejected" `Quick test_io_rejects_garbage;
    Alcotest.test_case "extent and size" `Quick test_extent_and_size;
    Alcotest.test_case "events_in boundaries" `Quick test_events_in_boundaries;
    Alcotest.test_case "count_in binary search" `Quick test_count_in;
    Alcotest.test_case "input fluents deduplicated" `Quick test_input_fluent_dedup;
    Alcotest.test_case "input fluents that print alike stay apart" `Quick
      test_input_fluent_dedup_exact;
    Alcotest.test_case "events_at" `Quick test_events_at;
    Alcotest.test_case "indicators and append" `Quick test_indicators_and_append;
    Alcotest.test_case "events come out sorted" `Quick test_events_sorted;
    Alcotest.test_case "knowledge: solve" `Quick test_knowledge_solve;
    Alcotest.test_case "knowledge: solve under substitution" `Quick
      test_knowledge_solve_respects_subst;
    Alcotest.test_case "knowledge: thresholds" `Quick test_knowledge_threshold;
    Alcotest.test_case "knowledge: invalid input rejected" `Quick test_knowledge_rejects;
    Alcotest.test_case "knowledge: size and facts" `Quick test_knowledge_size_facts;
  ]
