open Rtec

let ev time src = { Stream.time; term = Parser.parse_term src }
let fvp f v = (Parser.parse_term f, Parser.parse_term v)

let run ?carry ?(knowledge = Knowledge.empty) ?(input_fluents = []) ~source ~events
    ~from ~until () =
  let ed = [ Parser.parse_definition ~name:"test" source ] in
  let stream = Stream.make ~input_fluents events in
  match Engine.run ?carry ~plan:(Engine.plan ed) ~knowledge ~stream ~from ~until () with
  | Ok result -> result
  | Error e -> Alcotest.failf "engine error: %s" e

let check_intervals msg expected result fv =
  Alcotest.(check (list (pair int int))) msg expected
    (Interval.to_list (Engine.intervals result fv))

let test_simple_inertia () =
  let source =
    "initiatedAt(on(D) = true, T) :- happensAt(switch_on(D), T).\n\
     terminatedAt(on(D) = true, T) :- happensAt(switch_off(D), T)."
  in
  let events =
    [ ev 3 "switch_on(d1)"; ev 10 "switch_off(d1)"; ev 15 "switch_on(d1)";
      ev 5 "switch_on(d2)" ]
  in
  let result = run ~source ~events ~from:0 ~until:20 () in
  check_intervals "d1: closed then open" [ (4, 11); (16, Interval.infinity) ] result
    (fvp "on(d1)" "true");
  check_intervals "d2: open" [ (6, Interval.infinity) ] result (fvp "on(d2)" "true");
  Alcotest.(check bool) "holdsAt inside" true (Engine.holds_at result (fvp "on(d1)" "true") 7);
  Alcotest.(check bool) "holdsAt at termination point" true
    (Engine.holds_at result (fvp "on(d1)" "true") 10);
  Alcotest.(check bool) "holdsAt after" false
    (Engine.holds_at result (fvp "on(d1)" "true") 11)

let test_multivalue_switching () =
  (* Initiating a different value of the same fluent terminates the
     current one. *)
  let source =
    "initiatedAt(light(D) = green, T) :- happensAt(to_green(D), T).\n\
     initiatedAt(light(D) = red, T) :- happensAt(to_red(D), T)."
  in
  let events = [ ev 1 "to_green(l1)"; ev 5 "to_red(l1)"; ev 9 "to_green(l1)" ] in
  let result = run ~source ~events ~from:0 ~until:12 () in
  check_intervals "green" [ (2, 6); (10, Interval.infinity) ] result (fvp "light(l1)" "green");
  check_intervals "red" [ (6, 10) ] result (fvp "light(l1)" "red")

let test_negation_and_holds_at () =
  let source =
    "initiatedAt(busy(M) = true, T) :- happensAt(start(M), T).\n\
     terminatedAt(busy(M) = true, T) :- happensAt(finish(M), T).\n\
     initiatedAt(queued(M) = true, T) :- happensAt(request(M), T), \
     holdsAt(busy(M) = true, T).\n\
     initiatedAt(served(M) = true, T) :- happensAt(request(M), T), \
     not holdsAt(busy(M) = true, T)."
  in
  let events = [ ev 1 "start(m)"; ev 4 "request(m)"; ev 6 "finish(m)"; ev 9 "request(m)" ] in
  let result = run ~source ~events ~from:0 ~until:12 () in
  check_intervals "queued while busy" [ (5, Interval.infinity) ] result (fvp "queued(m)" "true");
  check_intervals "served when idle" [ (10, Interval.infinity) ] result (fvp "served(m)" "true")

let test_background_and_comparison () =
  let knowledge =
    Knowledge.of_source "limit(m1, 10.0). limit(m2, 50.0)."
  in
  let source =
    "initiatedAt(hot(M) = true, T) :- happensAt(reading(M, V), T), limit(M, L), V > L.\n\
     terminatedAt(hot(M) = true, T) :- happensAt(reading(M, V), T), limit(M, L), V =< L."
  in
  let events =
    [ ev 1 "reading(m1, 5.0)"; ev 2 "reading(m1, 20.0)"; ev 3 "reading(m2, 20.0)";
      ev 5 "reading(m1, 3.0)" ]
  in
  let result = run ~knowledge ~source ~events ~from:0 ~until:8 () in
  check_intervals "m1 above its limit" [ (3, 6) ] result (fvp "hot(m1)" "true");
  Alcotest.(check (list (pair int int))) "m2 never hot" []
    (Interval.to_list (Engine.intervals result (fvp "hot(m2)" "true")))

let test_arithmetic_in_comparisons () =
  let source =
    "initiatedAt(diverging(V) = true, T) :- happensAt(sig(V, C, H), T), C - H > 30.0.\n\
     terminatedAt(diverging(V) = true, T) :- happensAt(sig(V, C, H), T), C - H =< 30.0."
  in
  let events = [ ev 1 "sig(v, 90.0, 10.0)"; ev 5 "sig(v, 90.0, 80.0)" ] in
  let result = run ~source ~events ~from:0 ~until:8 () in
  check_intervals "difference threshold" [ (2, 6) ] result (fvp "diverging(v)" "true")

let test_nonground_termination_pattern () =
  (* Rule (3) of the paper: a gap terminates withinArea for every area
     type, though AreaType is unbound in the termination rule. *)
  let knowledge = Knowledge.of_source "areaType(a1, fishing). areaType(a2, natura)." in
  let source =
    "initiatedAt(withinArea(Vl, AreaType) = true, T) :- \
     happensAt(entersArea(Vl, Area), T), areaType(Area, AreaType).\n\
     terminatedAt(withinArea(Vl, AreaType) = true, T) :- happensAt(gap_start(Vl), T)."
  in
  let events = [ ev 1 "entersArea(v, a1)"; ev 2 "entersArea(v, a2)"; ev 8 "gap_start(v)" ] in
  let result = run ~knowledge ~source ~events ~from:0 ~until:10 () in
  check_intervals "fishing terminated by gap" [ (2, 9) ] result
    (fvp "withinArea(v, fishing)" "true");
  check_intervals "natura terminated by gap" [ (3, 9) ] result
    (fvp "withinArea(v, natura)" "true")

let test_statically_determined_union () =
  let source =
    "initiatedAt(speed(V) = low, T) :- happensAt(low_start(V), T).\n\
     terminatedAt(speed(V) = low, T) :- happensAt(low_end(V), T).\n\
     initiatedAt(speed(V) = high, T) :- happensAt(high_start(V), T).\n\
     terminatedAt(speed(V) = high, T) :- happensAt(high_end(V), T).\n\
     holdsFor(moving(V) = true, I) :- holdsFor(speed(V) = low, I1), \
     holdsFor(speed(V) = high, I2), union_all([I1, I2], I)."
  in
  let events =
    [ ev 1 "low_start(v)"; ev 5 "low_end(v)"; ev 5 "high_start(v)"; ev 9 "high_end(v)" ]
  in
  let result = run ~source ~events ~from:0 ~until:12 () in
  (* speed=low holds (1,5], speed=high (5,9]: moving amalgamates. *)
  check_intervals "union amalgamates" [ (2, 10) ] result (fvp "moving(v)" "true")

let test_sd_union_with_missing_value () =
  (* A vessel that is only ever 'high' still gets 'moving' intervals: the
     missing value contributes the empty list. *)
  let source =
    "initiatedAt(speed(V) = low, T) :- happensAt(low_start(V), T).\n\
     initiatedAt(speed(V) = high, T) :- happensAt(high_start(V), T).\n\
     terminatedAt(speed(V) = high, T) :- happensAt(high_end(V), T).\n\
     holdsFor(moving(V) = true, I) :- holdsFor(speed(V) = low, I1), \
     holdsFor(speed(V) = high, I2), union_all([I1, I2], I)."
  in
  let events = [ ev 2 "high_start(v)"; ev 7 "high_end(v)" ] in
  let result = run ~source ~events ~from:0 ~until:12 () in
  check_intervals "only high" [ (3, 8) ] result (fvp "moving(v)" "true")

let test_sd_intersection_and_complement () =
  let input_fluents =
    [ (fvp "near(a, b)" "true", Interval.of_list [ (2, 10) ]) ]
  in
  let source =
    "initiatedAt(slow(V) = true, T) :- happensAt(slow_start(V), T).\n\
     terminatedAt(slow(V) = true, T) :- happensAt(slow_end(V), T).\n\
     holdsFor(escort(V, W) = true, I) :- holdsFor(near(V, W) = true, Ip), \
     holdsFor(slow(V) = true, I1), intersect_all([Ip, I1], I).\n\
     holdsFor(alone(V) = true, I) :- holdsFor(slow(V) = true, I1), \
     holdsFor(escort(V, W) = true, I2), relative_complement_all(I1, [I2], I)."
  in
  let events = [ ev 3 "slow_start(a)"; ev 12 "slow_end(a)" ] in
  let result = run ~source ~events ~input_fluents ~from:0 ~until:15 () in
  check_intervals "escort = proximity inter slow" [ (4, 10) ] result
    (fvp "escort(a, b)" "true");
  check_intervals "alone = slow minus escort" [ (10, 13) ] result (fvp "alone(a)" "true")

let test_simple_depending_on_sd () =
  let source =
    "initiatedAt(speed(V) = low, T) :- happensAt(low_start(V), T).\n\
     terminatedAt(speed(V) = low, T) :- happensAt(low_end(V), T).\n\
     holdsFor(moving(V) = true, I) :- holdsFor(speed(V) = low, I1), union_all([I1], I).\n\
     initiatedAt(alarm(V) = true, T) :- happensAt(ping(V), T), holdsAt(moving(V) = true, T)."
  in
  let events = [ ev 1 "low_start(v)"; ev 4 "ping(v)"; ev 9 "low_end(v)"; ev 11 "ping(v)" ] in
  let result = run ~source ~events ~from:0 ~until:15 () in
  check_intervals "alarm initiated while moving" [ (5, Interval.infinity) ] result
    (fvp "alarm(v)" "true")

let test_cycle_detection () =
  let source =
    "holdsFor(a(V) = true, I) :- holdsFor(b(V) = true, I1), union_all([I1], I).\n\
     holdsFor(b(V) = true, I) :- holdsFor(a(V) = true, I1), union_all([I1], I)."
  in
  let ed = [ Parser.parse_definition ~name:"cycle" source ] in
  match
    Engine.run ~plan:(Engine.plan ed) ~knowledge:Knowledge.empty
      ~stream:(Stream.make []) ~from:0 ~until:10 ()
  with
  | Ok _ -> Alcotest.fail "expected cycle error"
  | Error msg ->
    Alcotest.(check bool) "mentions cycle" true
      (String.length msg > 0 &&
       (let lower = String.lowercase_ascii msg in
        let rec contains i =
          i + 6 <= String.length lower && (String.sub lower i 6 = "cyclic" || contains (i + 1))
        in
        contains 0))

let test_mixed_kind_rejected () =
  let source =
    "initiatedAt(f(V) = true, T) :- happensAt(e(V), T).\n\
     holdsFor(f(V) = true, I) :- holdsFor(g(V) = true, I1), union_all([I1], I)."
  in
  let ed = [ Parser.parse_definition ~name:"mixed" source ] in
  match
    Engine.run ~plan:(Engine.plan ed) ~knowledge:Knowledge.empty ~stream:(Stream.make [])
      ~from:0 ~until:10 ()
  with
  | Ok _ -> Alcotest.fail "mixed fluent kinds must be rejected"
  | Error _ -> ()

let test_undefined_reference_is_empty () =
  (* Error category 3: a condition over an undefined activity yields no
     recognition, without crashing. *)
  let source =
    "holdsFor(ghost(V) = true, I) :- holdsFor(undefined(V) = true, I1), union_all([I1], I)."
  in
  let result = run ~source ~events:[] ~from:0 ~until:10 () in
  Alcotest.(check int) "nothing recognised" 0
    (List.length (Engine.find_fluent result ("ghost", 1)))

let test_duration_filter () =
  (* The intDurGreater extension: sustained low speed counts as loitering,
     a brief dip does not. *)
  let source =
    "initiatedAt(slow(V) = true, T) :- happensAt(slow_start(V), T).\n\
     terminatedAt(slow(V) = true, T) :- happensAt(slow_end(V), T).\n\
     holdsFor(sustainedSlow(V) = true, I) :- holdsFor(slow(V) = true, I1), \
     intDurGreater(I1, 10, I)."
  in
  let events =
    [ ev 1 "slow_start(v)"; ev 4 "slow_end(v)"; (* 3 time-points: filtered out *)
      ev 10 "slow_start(v)"; ev 30 "slow_end(v)" (* 20 time-points: kept *) ]
  in
  let result = run ~source ~events ~from:0 ~until:40 () in
  check_intervals "short episode filtered" [ (11, 31) ] result
    (fvp "sustainedSlow(v)" "true");
  (* The construct also passes the well-formedness check. *)
  let ed = [ Parser.parse_definition ~name:"x" source ] in
  Alcotest.(check bool) "intDurGreater is well-formed" true
    (not (List.exists (fun d -> d.Check.severity = Check.Error) (Check.check ed)))

let test_initially () =
  let source =
    "initially(on(d1) = true).\n\
     initiatedAt(on(D) = true, T) :- happensAt(switch_on(D), T).\n\
     terminatedAt(on(D) = true, T) :- happensAt(switch_off(D), T)."
  in
  let events = [ ev 15 "switch_off(d1)" ] in
  let result = run ~source ~events ~from:0 ~until:20 () in
  check_intervals "initially seeds the fluent" [ (0, 16) ] result (fvp "on(d1)" "true");
  (* An initially declaration only applies to windows reaching the stream
     start. *)
  let result_late = run ~source ~events ~from:16 ~until:20 () in
  Alcotest.(check (list (pair int int))) "not re-seeded mid-stream" []
    (Interval.to_list (Engine.intervals result_late (fvp "on(d1)" "true")))

let test_initially_checked () =
  let ok = [ Parser.parse_definition ~name:"x" "initially(on(d1) = true)." ] in
  Alcotest.(check bool) "ground initially accepted" true
    (not (List.exists (fun d -> d.Check.severity = Check.Error) (Check.check ok)));
  let bad = [ Parser.parse_definition ~name:"x" "initially(on(D) = true)." ] in
  Alcotest.(check bool) "non-ground initially rejected" true
    (List.exists (fun d -> d.Check.severity = Check.Error) (Check.check bad))

let test_carry_seeds_inertia () =
  let source =
    "initiatedAt(on(D) = true, T) :- happensAt(switch_on(D), T).\n\
     terminatedAt(on(D) = true, T) :- happensAt(switch_off(D), T)."
  in
  let events = [ ev 15 "switch_off(d1)" ] in
  let result =
    run ~carry:[ fvp "on(d1)" "true" ] ~source ~events ~from:10 ~until:20 ()
  in
  check_intervals "carried fluent holds from window start" [ (10, 16) ] result
    (fvp "on(d1)" "true")

let test_query_patterns () =
  let knowledge = Knowledge.of_source "areaType(a1, fishing). areaType(a2, natura)." in
  let source =
    "initiatedAt(withinArea(Vl, AreaType) = true, T) :- \
     happensAt(entersArea(Vl, Area), T), areaType(Area, AreaType)."
  in
  let events = [ ev 1 "entersArea(v1, a1)"; ev 2 "entersArea(v2, a2)" ] in
  let result = run ~knowledge ~source ~events ~from:0 ~until:10 () in
  let q src = List.length (Engine.query result (Parser.parse_term src)) in
  Alcotest.(check int) "all instances" 2 (q "withinArea(V, A) = true");
  Alcotest.(check int) "by area type" 1 (q "withinArea(V, fishing) = true");
  Alcotest.(check int) "by vessel" 1 (q "withinArea(v2, A) = true");
  Alcotest.(check int) "no match" 0 (q "withinArea(v2, fishing) = true");
  Alcotest.(check int) "non-fvp pattern" 0 (q "withinArea(V, A)")

let test_window_stats () =
  let source = "initiatedAt(on(D) = true, T) :- happensAt(switch_on(D), T)." in
  let ed = [ Parser.parse_definition ~name:"t" source ] in
  let events = List.init 10 (fun i -> ev (i * 10) "switch_on(d)") in
  match
    Oracle.Window.run ~window:20 ~step:20 ~event_description:ed ~knowledge:Knowledge.empty
      ~stream:(Stream.make events) ()
  with
  | Error e -> Alcotest.failf "window run failed: %s" e
  | Ok (_, stats) ->
    Alcotest.(check bool) "several queries" true (stats.queries >= 4);
    Alcotest.(check bool) "every event processed at least once" true
      (stats.events_processed >= 10)

let test_query_times () =
  let qt = Oracle.Window.query_times in
  Alcotest.(check (list int)) "basic sweep" [ 9; 19; 29; 35 ]
    (qt ~lo:0 ~hi:35 ~window:10 ~step:10);
  Alcotest.(check (list int)) "step landing on hi is not queried twice" [ 9; 19; 29 ]
    (qt ~lo:0 ~hi:29 ~window:10 ~step:10);
  Alcotest.(check (list int)) "stream shorter than one window: one query at hi" [ 5 ]
    (qt ~lo:0 ~hi:5 ~window:100 ~step:10);
  Alcotest.(check (list int)) "window exactly the extent: one query" [ 7 ]
    (qt ~lo:3 ~hi:7 ~window:5 ~step:5);
  Alcotest.(check (list int)) "single-point extent" [ 0 ] (qt ~lo:0 ~hi:0 ~window:1 ~step:1);
  Alcotest.(check (list int)) "overlapping windows end exactly at hi" [ 4; 7; 10 ]
    (qt ~lo:0 ~hi:10 ~window:5 ~step:3)

let test_short_stream_single_query () =
  let ed =
    [ Parser.parse_definition ~name:"t"
        "initiatedAt(on(D) = true, T) :- happensAt(switch_on(D), T)." ]
  in
  let stream = Stream.make [ ev 3 "switch_on(d)"; ev 8 "switch_on(d)" ] in
  match
    Oracle.Window.run ~window:1000 ~step:1000 ~event_description:ed ~knowledge:Knowledge.empty
      ~stream ()
  with
  | Error e -> Alcotest.failf "window run failed: %s" e
  | Ok (result, stats) ->
    Alcotest.(check int) "exactly one query" 1 stats.queries;
    Alcotest.(check bool) "fluent recognised" true
      (Engine.holds_at result (Parser.parse_term "on(d)", Term.Atom "true") 5)

let test_windowed_equals_single_window () =
  (* With overlapping windows, windowed recognition over the gold ED must
     agree with a single query over the whole stream, modulo the final
     horizon truncation. *)
  let source =
    "initiatedAt(on(D) = true, T) :- happensAt(switch_on(D), T).\n\
     terminatedAt(on(D) = true, T) :- happensAt(switch_off(D), T)."
  in
  let ed = [ Parser.parse_definition ~name:"test" source ] in
  let events =
    [ ev 3 "switch_on(d1)"; ev 40 "switch_off(d1)"; ev 55 "switch_on(d1)";
      ev 70 "switch_off(d1)"; ev 90 "switch_on(d2)"; ev 95 "switch_off(d2)" ]
  in
  let stream = Stream.make events in
  match
    ( Oracle.Window.run ~window:30 ~step:15 ~event_description:ed ~knowledge:Knowledge.empty
        ~stream (),
      Oracle.Window.run ~event_description:ed ~knowledge:Knowledge.empty ~stream () )
  with
  | Ok (windowed, stats), Ok (single, _) ->
    Alcotest.(check bool) "several queries ran" true (stats.queries > 3);
    List.iter
      (fun (fv, spans) ->
        let expected = Interval.clamp 0 97 spans in
        let actual = Interval.clamp 0 97 (Engine.intervals windowed fv) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "windowed matches single for %s"
             (Term.to_string (fst fv)))
          (Interval.to_list expected) (Interval.to_list actual))
      single
  | Error e, _ | _, Error e -> Alcotest.failf "window run failed: %s" e

let suite =
  [
    Alcotest.test_case "simple fluents obey inertia" `Quick test_simple_inertia;
    Alcotest.test_case "multi-valued fluents switch values" `Quick test_multivalue_switching;
    Alcotest.test_case "negation-by-failure and holdsAt" `Quick test_negation_and_holds_at;
    Alcotest.test_case "background knowledge and comparisons" `Quick
      test_background_and_comparison;
    Alcotest.test_case "arithmetic in comparisons" `Quick test_arithmetic_in_comparisons;
    Alcotest.test_case "non-ground termination patterns" `Quick
      test_nonground_termination_pattern;
    Alcotest.test_case "statically determined: union_all" `Quick
      test_statically_determined_union;
    Alcotest.test_case "union with a missing value" `Quick test_sd_union_with_missing_value;
    Alcotest.test_case "intersection and relative complement" `Quick
      test_sd_intersection_and_complement;
    Alcotest.test_case "simple fluent depending on SD fluent" `Quick
      test_simple_depending_on_sd;
    Alcotest.test_case "cyclic dependencies rejected" `Quick test_cycle_detection;
    Alcotest.test_case "mixed fluent kinds rejected by the engine" `Quick
      test_mixed_kind_rejected;
    Alcotest.test_case "undefined references recognise nothing" `Quick
      test_undefined_reference_is_empty;
    Alcotest.test_case "intDurGreater duration filter" `Quick test_duration_filter;
    Alcotest.test_case "initially declarations" `Quick test_initially;
    Alcotest.test_case "initially well-formedness" `Quick test_initially_checked;
    Alcotest.test_case "carry seeds inertia at window start" `Quick test_carry_seeds_inertia;
    Alcotest.test_case "pattern queries on results" `Quick test_query_patterns;
    Alcotest.test_case "window statistics" `Quick test_window_stats;
    Alcotest.test_case "query times" `Quick test_query_times;
    Alcotest.test_case "short stream yields a single query" `Quick
      test_short_stream_single_query;
    Alcotest.test_case "windowed run equals single window" `Quick
      test_windowed_equals_single_window;
  ]
