open Rtec

let conf tp fp fn = { Evaluation.Metrics.tp; fp; fn }
let float_eq = Alcotest.float 1e-9

let test_metrics_arithmetic () =
  Alcotest.check float_eq "precision" 0.8 (Evaluation.Metrics.precision (conf 8 2 5));
  Alcotest.check float_eq "recall" (8. /. 13.) (Evaluation.Metrics.recall (conf 8 2 5));
  Alcotest.check float_eq "f1" (16. /. 23.) (Evaluation.Metrics.f1 (conf 8 2 5));
  Alcotest.check float_eq "empty agreement is perfect" 1. (Evaluation.Metrics.f1 (conf 0 0 0));
  Alcotest.check float_eq "all false positives" 0. (Evaluation.Metrics.f1 (conf 0 5 0));
  Alcotest.check float_eq "all false negatives" 0. (Evaluation.Metrics.f1 (conf 0 0 5));
  let sum = Evaluation.Metrics.add (conf 1 2 3) (conf 4 5 6) in
  Alcotest.(check int) "add tp" 5 sum.tp;
  Alcotest.(check int) "add fp" 7 sum.fp;
  Alcotest.(check int) "add fn" 9 sum.fn

let mk_result entries =
  List.map
    (fun (f, spans) -> ((Parser.parse_term f, Term.Atom "true"), Interval.of_list spans))
    entries

let test_compare_activity () =
  let predicted = mk_result [ ("act(v1)", [ (0, 10) ]); ("act(v2)", [ (5, 8) ]) ] in
  let reference = mk_result [ ("act(v1)", [ (5, 15) ]); ("act(v3)", [ (0, 4) ]) ] in
  let c =
    Evaluation.Metrics.compare_activity ~predicted ~reference ~indicator:("act", 1)
  in
  (* v1: tp 5 (5..10), fp 5 (0..5), fn 5 (10..15); v2: fp 3; v3: fn 4. *)
  Alcotest.(check int) "tp" 5 c.tp;
  Alcotest.(check int) "fp" 8 c.fp;
  Alcotest.(check int) "fn" 9 c.fn

let test_compare_identical () =
  let r = mk_result [ ("act(v1)", [ (0, 10) ]) ] in
  let c = Evaluation.Metrics.compare_activity ~predicted:r ~reference:r ~indicator:("act", 1) in
  Alcotest.check float_eq "identical results give f1 1" 1. (Evaluation.Metrics.f1 c)

let test_reported_activities () =
  let reported = Evaluation.Detection.reported in
  Alcotest.(check int) "eight activities" 8 (List.length reported);
  let tug = List.find (fun (a : Evaluation.Detection.activity) -> a.code = "tu") reported in
  Alcotest.(check (pair string int)) "tugging is binary" ("tugging", 2) tug.indicator;
  let h = List.find (fun (a : Evaluation.Detection.activity) -> a.code = "h") reported in
  Alcotest.(check (pair string int)) "h indicator" ("highSpeedNearCoast", 1) h.indicator

(* --- end-to-end figure pipeline (the paper's experiments in miniature) --- *)

let generations = lazy (Evaluation.Experiments.generate_all ())

let test_figure_2a_shape () =
  let best = Evaluation.Experiments.best_per_model (Lazy.force generations) in
  Alcotest.(check int) "six models" 6 (List.length best);
  let avg label =
    (List.find
       (fun (g : Evaluation.Experiments.generation) ->
         g.session.Adg.Session.model = label)
       best)
      .average
  in
  (* The ordering the paper reports: o1 best, then GPT-4o, then Llama-3,
     with GPT-4, Mistral and Gemma-2 clearly behind. *)
  Alcotest.(check bool) "o1 is best overall" true
    (List.for_all (fun m -> avg "o1" >= avg m) Adg.Profiles.models);
  Alcotest.(check bool) "GPT-4o above Llama-3" true (avg "GPT-4o" > avg "Llama-3");
  Alcotest.(check bool) "Llama-3 above GPT-4" true (avg "Llama-3" > avg "GPT-4");
  Alcotest.(check bool) "weak models below 0.7" true
    (avg "GPT-4" < 0.7 && avg "Mistral" < 0.7 && avg "Gemma-2" < 0.7);
  (* Gemma-2's trawling, expressed with the wrong fluent kind, scores 0. *)
  let gemma =
    List.find
      (fun (g : Evaluation.Experiments.generation) -> g.session.Adg.Session.model = "Gemma-2")
      best
  in
  Alcotest.check float_eq "Gemma-2 trawling similarity is 0" 0.
    (List.assoc "trawling" gemma.per_activity)

let test_figure_2b_small_increase () =
  let best = Evaluation.Experiments.best_per_model (Lazy.force generations) in
  let corrected = Evaluation.Experiments.correct_top best in
  Alcotest.(check int) "three corrected descriptions" 3 (List.length corrected);
  List.iter
    (fun (c : Evaluation.Experiments.corrected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: correction increases similarity (%.3f -> %.3f)"
           c.corrected_label c.generation.average c.corrected_average)
        true
        (c.corrected_average >= c.generation.average);
      Alcotest.(check bool)
        (Printf.sprintf "%s: increase is small (< 0.2)" c.corrected_label)
        true
        (c.corrected_average -. c.generation.average < 0.2))
    corrected;
  let labels =
    List.map
      (fun (c : Evaluation.Experiments.corrected) -> c.generation.session.Adg.Session.model)
      corrected
  in
  Alcotest.(check bool) "top three are o1, GPT-4o and Llama-3" true
    (List.mem "o1" labels && List.mem "GPT-4o" labels && List.mem "Llama-3" labels)

let test_figure_2c_shape () =
  let best = Evaluation.Experiments.best_per_model (Lazy.force generations) in
  let corrected = Evaluation.Experiments.correct_top best in
  let dataset =
    Maritime.Dataset.generate ~config:{ Maritime.Dataset.seed = 7; replicas = 1; nominal = 1 } ()
  in
  match Evaluation.Experiments.predictive_accuracy ~dataset corrected with
  | Error e -> Alcotest.failf "figure 2c failed: %s" e
  | Ok rows ->
    let f1 model code =
      let row =
        List.find
          (fun (r : Evaluation.Experiments.accuracy_row) ->
            String.length r.label >= String.length model
            && String.sub r.label 0 (String.length model) = model)
          rows
      in
      List.assoc code row.per_activity_f1
    in
    (* o1 leads everywhere; GPT-4o and Llama-3 confuse union with
       intersection on loitering, which is then never satisfied. *)
    List.iter
      (fun code ->
        Alcotest.(check bool) ("o1 is perfect on " ^ code) true (f1 "o1" code > 0.99))
      Evaluation.Experiments.activity_codes;
    Alcotest.check float_eq "GPT-4o fails loitering" 0. (f1 "GPT-4o" "l");
    Alcotest.check float_eq "Llama-3 fails loitering" 0. (f1 "Llama-3" "l");
    Alcotest.(check bool) "GPT-4o high on simple activities" true (f1 "GPT-4o" "h" > 0.9);
    Alcotest.(check bool) "Llama-3 high on trawling" true (f1 "Llama-3" "tr" > 0.9)

let test_zero_shot_ablation () =
  let zero_shot = Evaluation.Experiments.zero_shot_ablation () in
  let best = Evaluation.Experiments.best_per_model (Lazy.force generations) in
  Alcotest.(check int) "six models" 6 (List.length zero_shot);
  (* Zero-shot is markedly worse than the pipeline for every model: the
     paper's reason for excluding it. *)
  List.iter
    (fun (g : Evaluation.Experiments.generation) ->
      let model = g.session.Adg.Session.model in
      let zs = List.assoc model zero_shot in
      Alcotest.(check bool)
        (Printf.sprintf "%s: zero-shot %.3f well below pipeline %.3f" model zs g.average)
        true
        (zs < g.average -. 0.15))
    best

let test_assignment_ablation () =
  let best = Evaluation.Experiments.best_per_model (Lazy.force generations) in
  let rows = Evaluation.Experiments.assignment_ablation best in
  List.iter
    (fun (label, hungarian, greedy) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: greedy (%.3f) never beats Kuhn-Munkres (%.3f)" label greedy
           hungarian)
        true
        (greedy <= hungarian +. 1e-9))
    rows

let suite =
  [
    Alcotest.test_case "confusion arithmetic" `Quick test_metrics_arithmetic;
    Alcotest.test_case "zero-shot ablation is markedly worse" `Quick
      test_zero_shot_ablation;
    Alcotest.test_case "greedy mapping never beats Kuhn-Munkres" `Quick
      test_assignment_ablation;
    Alcotest.test_case "activity comparison over instances" `Quick test_compare_activity;
    Alcotest.test_case "identical results agree perfectly" `Quick test_compare_identical;
    Alcotest.test_case "reported activities" `Quick test_reported_activities;
    Alcotest.test_case "figure 2a reproduces the paper's shape" `Quick test_figure_2a_shape;
    Alcotest.test_case "figure 2b: corrections are minor" `Quick
      test_figure_2b_small_increase;
    Alcotest.test_case "figure 2c reproduces the paper's shape" `Quick test_figure_2c_shape;
  ]
