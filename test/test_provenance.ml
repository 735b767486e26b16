(* Provenance tests: the derivation recorder must not perturb recognition
   (bit-identity on the maritime and fleet domains, sequential and
   sharded), the store must index and deduplicate records, the diagnosis
   probe must replay rules faithfully, and the FP/FN attribution must
   blame exactly the perturbed condition of a deliberately broken gold
   definition. *)

open Rtec

let result_equal =
  List.equal (fun (fva, sa) (fvb, sb) ->
      Engine.compare_fvp fva fvb = 0 && Interval.equal sa sb)

let check_result msg expected actual =
  Alcotest.(check bool) msg true (result_equal expected actual)

(* Every test restores the recorder to disabled-and-empty: the other
   suites share the process-global buffer. *)
let scoped f =
  Derivation.reset ();
  Fun.protect
    ~finally:(fun () ->
      Derivation.disable ();
      Derivation.reset ())
    f

(* --- differential: recognition is bit-identical with the recorder on --- *)

let maritime_dataset =
  lazy (Maritime.Dataset.generate ~config:{ seed = 7; replicas = 1; nominal = 2 } ())

let fleet_data = lazy (Fleet.generate ())

(* The par variants run four entity groups: [jobs] sets the group count
   directly, so the grouping and the per-bucket interval merge are
   exercised on any host. A recording run evaluates the groups in turn
   on one domain. *)
let differential ~jobs ~event_description ~knowledge ~stream () =
  scoped (fun () ->
      let config = Runtime.config ~window:3600 ~step:1800 ~jobs () in
      let plain =
        match Runtime.run ~config ~event_description ~knowledge ~stream () with
        | Ok (result, _) -> result
        | Error e -> Alcotest.failf "plain run failed: %s" e
      in
      let traced =
        match Provenance.recognise ~config ~event_description ~knowledge ~stream () with
        | Ok run -> run
        | Error e -> Alcotest.failf "traced run failed: %s" e
      in
      check_result
        (Printf.sprintf "bit-identical result at jobs %d" jobs)
        plain traced.Provenance.result;
      Alcotest.(check bool) "derivations were recorded" true
        (List.length (Lazy.force traced.Provenance.events) > 0);
      Alcotest.(check bool) "recorder restored to disabled" false
        (Derivation.is_enabled ()))

let test_differential_maritime_seq () =
  let d = Lazy.force maritime_dataset in
  differential ~jobs:1 ~event_description:Maritime.Gold.event_description
    ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()

let test_differential_maritime_par () =
  let d = Lazy.force maritime_dataset in
  differential ~jobs:4 ~event_description:Maritime.Gold.event_description
    ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()

let test_differential_fleet_seq () =
  let stream, knowledge = Lazy.force fleet_data in
  differential ~jobs:1 ~event_description:(Domain.event_description Fleet.domain)
    ~knowledge ~stream ()

let test_differential_fleet_par () =
  let stream, knowledge = Lazy.force fleet_data in
  differential ~jobs:4 ~event_description:(Domain.event_description Fleet.domain)
    ~knowledge ~stream ()

(* --- the store --- *)

let fvp_of name = (Term.app name [ Term.app "a" [] ], Term.app "true" [])

let test_store_dedup_and_sort () =
  let f, v = fvp_of "f" in
  let rule_src = Derivation.Rule { rule = "d#1"; steps = [] } in
  let events =
    [
      Derivation.Transition { fluent = f; value = v; time = 9; kind = Derivation.Init; source = rule_src };
      Derivation.Transition { fluent = f; value = v; time = 3; kind = Derivation.Init; source = rule_src };
      (* same (time, kind, rule) as above: a re-derivation by an
         overlapping window *)
      Derivation.Transition { fluent = f; value = v; time = 3; kind = Derivation.Init; source = rule_src };
      Derivation.Transition
        { fluent = f; value = v; time = 5; kind = Derivation.Term; source = rule_src };
      (* carry seeds restate an earlier window's work: excluded from inits *)
      Derivation.Transition
        { fluent = f; value = v; time = 1; kind = Derivation.Init; source = Derivation.Carry { origin = "carry" } };
    ]
  in
  let store = Provenance.Store.of_events events in
  Alcotest.(check int) "one fvp" 1 (List.length (Provenance.Store.fvps store));
  Alcotest.(check (list (pair int string)))
    "inits deduplicated, sorted, carry excluded"
    [ (3, "d#1"); (9, "d#1") ]
    (Provenance.Store.inits store (f, v));
  Alcotest.(check (list (pair int string)))
    "terms" [ (5, "d#1") ]
    (Provenance.Store.terms store (f, v));
  Alcotest.(check int) "all transitions kept (carry included)" 4
    (List.length (Provenance.Store.transitions store (f, v)))

(* --- the diagnosis probe --- *)

let test_diagnosis_rule_at () =
  let ed =
    [
      Rtec.Parser.parse_definition ~name:"probe"
        "initiatedAt(f(X) = true, T) :- happensAt(e(X), T).\n\
         terminatedAt(f(X) = true, T) :- happensAt(g(X), T).";
    ]
  in
  let stream = Io.stream_of_string "happensAt(e(a), 5).\nhappensAt(g(a), 9)." in
  match Engine.Diagnosis.prepare ~event_description:ed ~knowledge:Knowledge.empty ~stream () with
  | Error e -> Alcotest.failf "prepare failed: %s" e
  | Ok diag ->
    let fvp = fvp_of "f" in
    let rules = Engine.Diagnosis.rules_for diag ("f", 1) in
    Alcotest.(check int) "two rules for f/1" 2 (List.length rules);
    let init_rule = List.assoc "probe#1" rules in
    (match Engine.Diagnosis.rule_at diag ~rule:init_rule ~fvp ~time:5 with
    | Engine.Diagnosis.Derivable -> ()
    | _ -> Alcotest.fail "initiation should be derivable at 5");
    (match Engine.Diagnosis.rule_at diag ~rule:init_rule ~fvp ~time:6 with
    | Engine.Diagnosis.Failing { index = 1; _ } -> ()
    | _ -> Alcotest.fail "initiation should fail on its first condition at 6");
    let result = Engine.Diagnosis.result diag in
    check_result "probe result" [ (fvp, Interval.of_list [ (6, 10) ]) ] result

(* --- attribution: a perturbed condition gets the blame --- *)

let replace ~pat ~by s =
  let plen = String.length pat in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - plen then Buffer.add_string buf (String.sub s i (String.length s - i))
    else if String.sub s i plen = pat then begin
      Buffer.add_string buf by;
      go (i + plen)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let parse_ed ~name text =
  match Parser.parse_clauses_result text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok rules -> [ { Ast.name; rules = Ast.with_ids ~name rules } ]

let test_attribution_perturbed_condition () =
  let d = Lazy.force maritime_dataset in
  let gold_text = Printer.event_description_to_string Maritime.Gold.event_description in
  let pert_text = replace ~pat:"Speed > HcNearCoastMax" ~by:"Speed > 0.0" gold_text in
  Alcotest.(check bool) "perturbation applied" true (gold_text <> pert_text);
  let gold = parse_ed ~name:"gold" gold_text in
  let generated = parse_ed ~name:"pert" pert_text in
  (* the label with_ids assigned to the rule we perturbed: the single
     rule whose body differs from its gold counterpart *)
  let pert_rule_label =
    let rec find gs ps =
      match (gs, ps) with
      | (g : Ast.rule) :: gs, (p : Ast.rule) :: ps ->
        if List.length g.body = List.length p.body && List.for_all2 Term.equal g.body p.body
        then find gs ps
        else p.Ast.id
      | _ -> Alcotest.fail "no differing rule between gold and perturbed"
    in
    find (List.hd gold).Ast.rules (List.hd generated).Ast.rules
  in
  Alcotest.(check bool) "perturbed rule found" true (pert_rule_label <> "");
  match
    Provenance.Diff.diff ~gold ~generated ~knowledge:d.Maritime.Dataset.knowledge
      ~stream:d.Maritime.Dataset.stream ()
  with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok report ->
    Alcotest.(check bool) "the perturbation introduced FPs" true
      (report.Provenance.Diff.total_fp > 0);
    Alcotest.(check int) "and no FNs" 0 report.Provenance.Diff.total_fn;
    Alcotest.(check bool) "there are attributions" true
      (report.Provenance.Diff.attributions <> []);
    List.iter
      (fun (a : Provenance.Diff.attribution) ->
        Alcotest.(check string) "every FP blames the perturbed rule" pert_rule_label
          a.Provenance.Diff.rule;
        match a.Provenance.Diff.condition with
        | Some c ->
          Alcotest.(check string) "and the perturbed condition"
            "Speed > HcNearCoastMax" c.Provenance.Diff.text;
          Alcotest.(check int) "at its body position" 4 c.Provenance.Diff.index
        | None -> Alcotest.failf "unattributed divergence: %s" a.Provenance.Diff.note)
      report.Provenance.Diff.attributions;
    (* the blame table aggregates them into a single row *)
    (match report.Provenance.Diff.rows with
    | [ row ] ->
      Alcotest.(check string) "single blame row, perturbed rule" pert_rule_label
        row.Provenance.Diff.row_rule;
      Alcotest.(check int) "row fp points = total fp" report.Provenance.Diff.total_fp
        row.Provenance.Diff.fp_points
    | rows -> Alcotest.failf "expected one blame row, got %d" (List.length rows));
    (* identical descriptions diverge nowhere *)
    (match
       Provenance.Diff.diff ~gold ~generated:gold ~knowledge:d.Maritime.Dataset.knowledge
         ~stream:d.Maritime.Dataset.stream ()
     with
    | Error e -> Alcotest.failf "self-diff failed: %s" e
    | Ok self ->
      Alcotest.(check int) "self-diff has no FPs" 0 self.Provenance.Diff.total_fp;
      Alcotest.(check int) "self-diff has no FNs" 0 self.Provenance.Diff.total_fn)

(* --- a strengthened initiation shows up as FNs on the generated side --- *)

let test_attribution_fn_side () =
  let d = Lazy.force maritime_dataset in
  let gold_text = Printer.event_description_to_string Maritime.Gold.event_description in
  (* make the generated initiation unsatisfiable: every gold
     highSpeedNearCoast interval becomes a false negative *)
  let pert_text = replace ~pat:"Speed > HcNearCoastMax" ~by:"Speed > 99999.0" gold_text in
  Alcotest.(check bool) "perturbation applied" true (gold_text <> pert_text);
  let gold = parse_ed ~name:"gold" gold_text in
  let generated = parse_ed ~name:"pert" pert_text in
  match
    Provenance.Diff.diff ~gold ~generated ~knowledge:d.Maritime.Dataset.knowledge
      ~stream:d.Maritime.Dataset.stream ()
  with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok report ->
    Alcotest.(check bool) "strengthened initiation introduces FNs" true
      (report.Provenance.Diff.total_fn > 0);
    Alcotest.(check int) "and no FPs" 0 report.Provenance.Diff.total_fp;
    List.iter
      (fun (a : Provenance.Diff.attribution) ->
        Alcotest.(check bool) "every attribution is an FN" true
          (a.Provenance.Diff.kind = Provenance.Diff.Fn);
        match a.Provenance.Diff.condition with
        | Some c ->
          Alcotest.(check string) "blamed on the strengthened comparison"
            "Speed > 99999.0" c.Provenance.Diff.text;
          Alcotest.(check int) "at its body position" 4 c.Provenance.Diff.index
        | None -> Alcotest.failf "unattributed divergence: %s" a.Provenance.Diff.note)
      report.Provenance.Diff.attributions

(* --- exports --- *)

let test_exports_parse_back () =
  let d = Lazy.force maritime_dataset in
  scoped (fun () ->
      match
        Provenance.recognise ~event_description:Maritime.Gold.event_description
          ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()
      with
      | Error e -> Alcotest.failf "recognise failed: %s" e
      | Ok run ->
        let events = Lazy.force run.Provenance.events in
        let proof = Provenance.Export.proof_to_json events in
        let reparsed = Telemetry.Json.of_string (Telemetry.Json.to_string proof) in
        (match reparsed with
        | Ok j ->
          let n =
            match Telemetry.Json.member "events" j with
            | Some (Telemetry.Json.List l) -> List.length l
            | _ -> 0
          in
          Alcotest.(check int) "proof events survive the round-trip"
            (List.length events) n
        | Error e -> Alcotest.failf "proof JSON does not parse back: %s" e);
        let chrome = Provenance.Export.proof_to_chrome events in
        (match Telemetry.Json.of_string (Telemetry.Json.to_string chrome) with
        | Ok j ->
          (match Telemetry.Json.member "traceEvents" j with
          | Some (Telemetry.Json.List l) ->
            Alcotest.(check bool) "chrome trace has events" true (List.length l > 0)
          | _ -> Alcotest.fail "traceEvents missing")
        | Error e -> Alcotest.failf "chrome JSON does not parse back: %s" e))

let suite =
  [
    Alcotest.test_case "differential: maritime, jobs 1" `Slow test_differential_maritime_seq;
    Alcotest.test_case "differential: maritime, jobs 4" `Slow test_differential_maritime_par;
    Alcotest.test_case "differential: fleet, jobs 1" `Slow test_differential_fleet_seq;
    Alcotest.test_case "differential: fleet, jobs 4" `Slow test_differential_fleet_par;
    Alcotest.test_case "store: dedup, sort, carry exclusion" `Quick test_store_dedup_and_sort;
    Alcotest.test_case "diagnosis: rule_at replays rules" `Quick test_diagnosis_rule_at;
    Alcotest.test_case "attribution: perturbed condition blamed" `Slow
      test_attribution_perturbed_condition;
    Alcotest.test_case "attribution: strengthened initiation blamed (FN)" `Slow
      test_attribution_fn_side;
    Alcotest.test_case "exports parse back" `Slow test_exports_parse_back;
  ]
