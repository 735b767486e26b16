open Rtec

let domain = Fleet.domain

let test_domain_well_formed () =
  let ed = Domain.event_description domain in
  let diags =
    List.filter
      (fun d -> d.Check.severity = Check.Error)
      (Check.check ~vocabulary:(Domain.check_vocabulary domain) ed)
  in
  List.iter (fun d -> Format.eprintf "%a@." Check.pp_diagnostic d) diags;
  Alcotest.(check int) "no errors in the fleet gold standard" 0 (List.length diags);
  Alcotest.(check int) "ten definitions" 10 (List.length domain.entries);
  Alcotest.(check int) "six reported activities" 6 (List.length (Domain.reported domain))

let test_hierarchy () =
  let deps = Dependency.analyse (Domain.event_description domain) in
  match Dependency.evaluation_order deps with
  | Error e -> Alcotest.failf "fleet hierarchy should stratify: %s" e
  | Ok order ->
    let pos name =
      let rec go i = function
        | [] -> Alcotest.failf "%s missing" name
        | (f, _) :: rest -> if String.equal f name then i else go (i + 1) rest
      in
      go 0 order
    in
    Alcotest.(check bool) "punctuality before drivingQuality" true
      (pos "punctuality" < pos "drivingQuality");
    Alcotest.(check bool) "speeding before recklessDriving" true
      (pos "speeding" < pos "recklessDriving")

let recognition =
  lazy
    (let stream, knowledge = Fleet.generate () in
     match
       Oracle.Window.run ~window:3600 ~step:1800
         ~event_description:(Domain.event_description domain) ~knowledge ~stream ()
     with
     | Ok (result, _) -> result
     | Error e -> Alcotest.failf "fleet recognition failed: %s" e)

let total indicator =
  List.fold_left
    (fun acc (_, spans) -> acc + Interval.duration (Interval.clamp 0 1_000_000 spans))
    0
    (Engine.find_fluent (Lazy.force recognition) indicator)

let test_recognition_personas () =
  (* Aggressive buses (1 and 4) speed and drive recklessly; degraded buses
     (2 and 5) are non-punctual, crowded, hot and noisy. *)
  Alcotest.(check bool) "speeding occurs" true (total ("speeding", 1) > 0);
  Alcotest.(check bool) "reckless driving occurs" true (total ("recklessDriving", 1) > 0);
  Alcotest.(check bool) "passenger comfort reduces" true
    (total ("passengerComfort", 1) > 0);
  Alcotest.(check bool) "passenger safety reduces" true (total ("passengerSafety", 1) > 0);
  Alcotest.(check bool) "driving quality assessed" true (total ("drivingQuality", 1) > 0);
  (* The punctual persona yields high driving quality for bus0/bus3. *)
  let high =
    Engine.find_fluent (Lazy.force recognition) ("drivingQuality", 1)
    |> List.filter (fun ((f, v), _) ->
           Term.equal v (Term.Atom "high")
           &&
           match Term.args f with
           | [ Term.Atom id ] -> id = "bus0" || id = "bus3"
           | _ -> false)
  in
  Alcotest.(check bool) "good buses achieve high driving quality" true (high <> [])

let test_prompts_customised () =
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  (* Prompt R is domain independent and reused verbatim. *)
  Alcotest.(check string) "prompt R reused as-is" (Adg.Prompt.rtec_syntax ())
    (Adg.Prompt.rtec_syntax ());
  let preamble = Adg.Prompt.preamble ~domain Adg.Prompt.Chain_of_thought in
  Alcotest.(check int) "four preamble prompts" 4 (List.length preamble);
  let e_prompt = List.nth preamble 2 in
  Alcotest.(check bool) "prompt E lists fleet events" true
    (contains ~needle:"stop_enter" e_prompt && contains ~needle:"sharp_turn" e_prompt);
  Alcotest.(check bool) "prompt E has no maritime events" false
    (contains ~needle:"entersArea" e_prompt);
  let t_prompt = List.nth preamble 3 in
  Alcotest.(check bool) "prompt T lists fleet thresholds" true
    (contains ~needle:"speedLimit" t_prompt);
  let f_prompt = List.nth preamble 1 in
  Alcotest.(check bool) "prompt F rebuilt from fleet examples" true
    (contains ~needle:"punctuality" f_prompt)

let test_generation_pipeline () =
  let profile = Adg.Profiles.find ~model:"o1" ~scheme:Adg.Prompt.Few_shot in
  let session = Adg.Session.run ~domain (Adg.Profiles.backend ~domain profile) in
  Alcotest.(check int) "one definition per fleet entry" 10
    (List.length session.definitions);
  Alcotest.(check int) "everything parses" 0
    (List.length (Adg.Session.parse_failures session));
  let corrected, _ = Adg.Correction.correct ~domain session in
  Alcotest.(check bool) "corrected fleet description is usable" true
    (Check.usable ~vocabulary:(Domain.check_vocabulary domain) corrected)

let test_generation_determinism () =
  let profile = Adg.Profiles.find ~model:"Gemma-2" ~scheme:Adg.Prompt.Chain_of_thought in
  let run () =
    let session = Adg.Session.run ~domain (Adg.Profiles.backend ~domain profile) in
    List.map (fun (d : Adg.Session.generated_definition) -> d.raw) session.definitions
  in
  Alcotest.(check bool) "same output twice" true (run () = run ())

let suite =
  [
    Alcotest.test_case "fleet gold standard is well-formed" `Quick test_domain_well_formed;
    Alcotest.test_case "fleet hierarchy stratifies" `Quick test_hierarchy;
    Alcotest.test_case "recognition matches the personas" `Quick test_recognition_personas;
    Alcotest.test_case "prompts are customised, prompt R reused" `Quick
      test_prompts_customised;
    Alcotest.test_case "generation pipeline works on the fleet domain" `Quick
      test_generation_pipeline;
    Alcotest.test_case "fleet generation is deterministic" `Quick
      test_generation_determinism;
  ]
