open Rtec

let small_config = { Maritime.Dataset.seed = 7; replicas = 1; nominal = 1 }
let dataset = lazy (Maritime.Dataset.generate ~config:small_config ())

let test_vocabulary_consistency () =
  Alcotest.(check bool) "threshold lookup" true
    (Maritime.Vocabulary.threshold_value "hcNearCoastMax" = 5.0);
  Alcotest.check_raises "unknown threshold" Not_found (fun () ->
      ignore (Maritime.Vocabulary.threshold_value "nope"));
  (* every threshold id is a known name *)
  List.iter
    (fun (t : Maritime.Vocabulary.threshold) ->
      Alcotest.(check bool) (t.id ^ " is known") true
        (List.mem t.id Maritime.Vocabulary.known_names))
    Maritime.Vocabulary.thresholds

let test_gold_entries () =
  Alcotest.(check int) "25 definitions" 25 (List.length Maritime.Gold.entries);
  Alcotest.(check int) "8 reported activities" 8 (List.length Maritime.Gold.reported);
  Alcotest.(check (list string)) "figure order"
    [ "h"; "aM"; "tr"; "tu"; "p"; "l"; "s"; "d" ]
    (List.map
       (fun (e : Maritime.Gold.entry) -> Option.get e.code)
       Maritime.Gold.reported);
  (* Each definition's head fluent carries the entry name. *)
  List.iter
    (fun (e : Maritime.Gold.entry) ->
      let d = Maritime.Gold.definition e.name in
      match Ast.head_indicator (List.hd d.rules) with
      | Some (f, _) -> Alcotest.(check string) "head matches label" e.name f
      | None -> Alcotest.failf "no head indicator for %s" e.name)
    Maritime.Gold.entries

let test_geography () =
  let geo = Maritime.Geography.default in
  let fishing =
    List.find (fun (a : Maritime.Geography.area) -> a.id = "fish1") geo.areas
  in
  Alcotest.(check bool) "inside rect" true
    (Maritime.Geography.contains fishing ~x:40_000. ~y:40_000.);
  Alcotest.(check bool) "outside rect" false
    (Maritime.Geography.contains fishing ~x:20_000. ~y:40_000.);
  let anchorage =
    List.find (fun (a : Maritime.Geography.area) -> a.id = "anch1") geo.areas
  in
  Alcotest.(check bool) "inside circle" true
    (Maritime.Geography.contains anchorage ~x:12_000. ~y:28_100.);
  Alcotest.(check bool) "circle boundary excluded" false
    (Maritime.Geography.contains anchorage ~x:12_000. ~y:31_000.);
  Alcotest.(check int) "area type facts cover all areas"
    (List.length geo.areas)
    (List.length (Maritime.Geography.area_type_facts geo))

let test_preprocessing_events () =
  let geo = Maritime.Geography.default in
  let msg t speed x y =
    { Maritime.Ais.t; vessel = "v"; x; y; speed; heading = 0.; cog = 0. }
  in
  (* Stop, then slow motion, then a gap. *)
  let messages =
    [ msg 0 0.1 50_000. 50_000.; msg 60 0.1 50_000. 50_000.; msg 120 2.0 50_000. 50_000.;
      msg 180 8.0 50_000. 50_000.; msg 5000 8.0 50_000. 50_000. ]
  in
  let stream = Maritime.Ais.preprocess ~geography:geo messages in
  let count name arity =
    List.length (Stream.events_in stream ~functor_:(name, arity) ~from:0 ~until:10_000)
  in
  Alcotest.(check int) "velocity per message" 5 (count "velocity" 4);
  Alcotest.(check int) "initial stop_start" 1 (count "stop_start" 1);
  Alcotest.(check int) "stop_end on speed-up" 1 (count "stop_end" 1);
  Alcotest.(check int) "slow_motion episodes" 1 (count "slow_motion_start" 1);
  Alcotest.(check int) "slow_motion ends" 1 (count "slow_motion_end" 1);
  (* one mid-track silence gap + the end-of-coverage gap *)
  Alcotest.(check int) "gap starts" 2 (count "gap_start" 1);
  Alcotest.(check int) "gap ends" 1 (count "gap_end" 1);
  Alcotest.(check bool) "speed jump starts change_in_speed" true
    (count "change_in_speed_start" 1 >= 1)

let test_preprocessing_areas () =
  let geo = Maritime.Geography.default in
  let msg t x = { Maritime.Ais.t; vessel = "v"; x; y = 40_000.; speed = 8.0; heading = 0.; cog = 0. } in
  (* Crosses into fish1 (x in [30k, 50k]) and out again. *)
  let messages = [ msg 0 29_000.; msg 60 31_000.; msg 120 49_000.; msg 180 51_000. ] in
  let stream = Maritime.Ais.preprocess ~geography:geo messages in
  let events name = Stream.events_in stream ~functor_:(name, 2) ~from:0 ~until:10_000 in
  Alcotest.(check int) "one entersArea" 1 (List.length (events "entersArea"));
  Alcotest.(check int) "one leavesArea" 1 (List.length (events "leavesArea"))

let test_preprocessing_heading () =
  let geo = Maritime.Geography.default in
  let msg t heading =
    { Maritime.Ais.t; vessel = "v"; x = 50_000.; y = 55_000.; speed = 8.0; heading; cog = heading }
  in
  let messages = [ msg 0 10.; msg 60 12.; msg 120 50.; msg 180 355. ] in
  let stream = Maritime.Ais.preprocess ~geography:geo messages in
  (* 12 -> 50 jumps 38 degrees; 50 -> 355 wraps to 55 degrees. *)
  Alcotest.(check int) "heading changes (with wrap-around)" 2
    (List.length (Stream.events_in stream ~functor_:("change_in_heading", 1) ~from:0 ~until:10_000))

let test_proximity_symmetric () =
  let geo = Maritime.Geography.default in
  let msg v t x = { Maritime.Ais.t; vessel = v; x; y = 40_000.; speed = 3.0; heading = 0.; cog = 0. } in
  let messages =
    [ msg "a" 0 50_000.; msg "b" 0 50_100.; msg "a" 60 50_000.; msg "b" 60 50_100.;
      msg "a" 120 50_000.; msg "b" 120 58_000. ]
  in
  let stream = Maritime.Ais.preprocess ~geography:geo messages in
  let fluents = Stream.input_fluents stream in
  Alcotest.(check int) "both argument orders" 2 (List.length fluents);
  let spans_of a b =
    List.find_map
      (fun ((f, _), spans) ->
        if Term.equal f (Term.app "proximity" [ Term.Atom a; Term.Atom b ]) then Some spans
        else None)
      fluents
  in
  match (spans_of "a" "b", spans_of "b" "a") with
  | Some s1, Some s2 ->
    Alcotest.(check bool) "identical spans" true (Interval.equal s1 s2);
    Alcotest.(check bool) "covers the close samples" true (Interval.mem 60 s1);
    Alcotest.(check bool) "not the far sample" false (Interval.mem 125 s1)
  | _ -> Alcotest.fail "proximity fluents missing"

let test_dataset_generation () =
  let data = Lazy.force dataset in
  Alcotest.(check bool) "has vessels" true (List.length data.vessels > 10);
  Alcotest.(check bool) "has messages" true (List.length data.messages > 1000);
  Alcotest.(check bool) "stream non-empty" true (Stream.size data.stream > 1000);
  Alcotest.(check bool) "knowledge populated" true (Knowledge.size data.knowledge > 20);
  (* Deterministic: same seed, same dataset. *)
  let again = Maritime.Dataset.generate ~config:small_config () in
  Alcotest.(check int) "deterministic size" (Stream.size data.stream)
    (Stream.size again.stream)

let detect ed =
  let data = Lazy.force dataset in
  match
    Oracle.Window.run ~window:3600 ~step:1800 ~event_description:ed ~knowledge:data.knowledge
      ~stream:data.stream ()
  with
  | Ok (result, _) -> result
  | Error e -> Alcotest.failf "recognition failed: %s" e

let gold_result = lazy (detect Maritime.Gold.event_description)

let total_duration result indicator =
  List.fold_left
    (fun acc (_, spans) -> acc + Interval.duration (Interval.clamp 0 1_000_000 spans))
    0
    (Engine.find_fluent result indicator)

let test_recognition_trawling () =
  let result = Lazy.force gold_result in
  let d = total_duration result ("trawling", 1) in
  (* One trawler towing for 3 hours. *)
  Alcotest.(check bool) (Printf.sprintf "trawling ~3h (got %d)" d) true
    (d > 10_000 && d < 11_500)

let test_recognition_anchored_moored () =
  let result = Lazy.force gold_result in
  let d = total_duration result ("anchoredOrMoored", 1) in
  (* 6h anchored + 5h moored. *)
  Alcotest.(check bool) (Printf.sprintf "anchoredOrMoored ~11h (got %d)" d) true
    (d > 38_000 && d < 41_500)

let test_recognition_high_speed () =
  let result = Lazy.force gold_result in
  let d = total_duration result ("highSpeedNearCoast", 1) in
  Alcotest.(check bool) (Printf.sprintf "high speed near coast ~1h (got %d)" d) true
    (d > 3_000 && d < 6_500)

let test_recognition_pairs () =
  let result = Lazy.force gold_result in
  let tugging = Engine.find_fluent result ("tugging", 2) in
  Alcotest.(check int) "tugging holds in both orders" 2 (List.length tugging);
  let boarding = Engine.find_fluent result ("pilotBoarding", 2) in
  (* Directional: the pilot vessel must be the first argument. *)
  Alcotest.(check int) "one pilot boarding instance" 1 (List.length boarding)

let test_recognition_sar_and_drift () =
  let result = Lazy.force gold_result in
  let sar = total_duration result ("searchAndRescue", 1) in
  Alcotest.(check bool) (Printf.sprintf "search-and-rescue ~4h (got %d)" sar) true
    (sar > 12_000 && sar < 15_500);
  let drift = total_duration result ("drifting", 1) in
  Alcotest.(check bool) (Printf.sprintf "drifting ~3h (got %d)" drift) true
    (drift > 10_000 && drift < 11_500)

let test_recognition_illegal_fishing_and_rendezvous () =
  let result = Lazy.force gold_result in
  let illegal = total_duration result ("illegalFishing", 1) in
  (* One poacher turning at fishing speed inside the Natura area for 2h. *)
  Alcotest.(check bool) (Printf.sprintf "illegal fishing ~2h (got %d)" illegal) true
    (illegal > 6_500 && illegal < 8_000);
  (* The legal trawler in the fishing area must not count as illegal. *)
  let poacher_only =
    List.for_all
      (fun ((f, _), _) ->
        match Term.args f with
        | [ Term.Atom id ] -> String.length id >= 7 && String.sub id 0 7 = "poacher"
        | _ -> false)
      (Engine.find_fluent result ("illegalFishing", 1))
  in
  Alcotest.(check bool) "only the poacher fishes illegally" true poacher_only;
  let rdv = Engine.find_fluent result ("rendezVous", 2) in
  let transfer_pair =
    List.exists
      (fun ((f, _), spans) ->
        match Term.args f with
        | [ Term.Atom a; Term.Atom b ] ->
          String.length a >= 5 && String.sub a 0 5 = "giver"
          && String.length b >= 5 && String.sub b 0 5 = "taker"
          && Interval.duration (Interval.clamp 0 1_000_000 spans) > 9_000
        | _ -> false)
      rdv
  in
  Alcotest.(check bool) "the transfer pair is in rendezVous for ~3h" true transfer_pair

let test_recognition_gap () =
  let result = Lazy.force gold_result in
  let entries = Engine.find_fluent result ("gap", 1) in
  let gapper_far =
    List.exists
      (fun ((f, v), _) ->
        Term.functor_of f = "gap"
        && (match Term.args f with
           | [ Term.Atom id ] -> String.length id >= 6 && String.sub id 0 6 = "gapper"
           | _ -> false)
        && Term.equal v (Term.Atom "farFromPorts"))
      entries
  in
  Alcotest.(check bool) "gapper has farFromPorts gaps" true gapper_far

let suite =
  [
    Alcotest.test_case "vocabulary consistency" `Quick test_vocabulary_consistency;
    Alcotest.test_case "gold entries" `Quick test_gold_entries;
    Alcotest.test_case "geography membership" `Quick test_geography;
    Alcotest.test_case "preprocessing: kinematic events" `Quick test_preprocessing_events;
    Alcotest.test_case "preprocessing: area transitions" `Quick test_preprocessing_areas;
    Alcotest.test_case "preprocessing: heading changes" `Quick test_preprocessing_heading;
    Alcotest.test_case "proximity is symmetric" `Quick test_proximity_symmetric;
    Alcotest.test_case "dataset generation is deterministic" `Quick test_dataset_generation;
    Alcotest.test_case "recognition: trawling" `Quick test_recognition_trawling;
    Alcotest.test_case "recognition: anchored or moored" `Quick
      test_recognition_anchored_moored;
    Alcotest.test_case "recognition: high speed near coast" `Quick
      test_recognition_high_speed;
    Alcotest.test_case "recognition: vessel pairs" `Quick test_recognition_pairs;
    Alcotest.test_case "recognition: SAR and drifting" `Quick test_recognition_sar_and_drift;
    Alcotest.test_case "recognition: illegal fishing and ship-to-ship transfer" `Quick
      test_recognition_illegal_fishing_and_rendezvous;
    Alcotest.test_case "recognition: communication gaps" `Quick test_recognition_gap;
  ]
