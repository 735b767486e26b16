type generation = {
  session : Adg.Session.t;
  label : string;
  per_activity : (string * float) list;
  average : float;
}

let activity_codes = [ "h"; "aM"; "tr"; "tu"; "p"; "l"; "s"; "d" ]

let gold_rules name = (Maritime.Gold.definition name).rules

(* The gold side of every similarity comparison is fixed: preprocess
   each activity's rules (variable-instance maps, body arrays, content
   hashes) exactly once per process instead of once per generated
   definition they are graded against. *)
let gold_prepared =
  lazy
    (List.map
       (fun (e : Maritime.Gold.entry) ->
         (e.name, Similarity.Distance.prepare (gold_rules e.name)))
       Maritime.Gold.entries)

let prepared_gold name = List.assoc name (Lazy.force gold_prepared)

let similarity_against_gold ?strategy rules name =
  Similarity.Distance.similarity_prepared ?strategy
    (Similarity.Distance.prepare rules)
    (prepared_gold name)

let similarity_of_definition (session : Adg.Session.t) name =
  match
    List.find_opt (fun (d : Adg.Session.generated_definition) -> d.activity = name)
      session.definitions
  with
  | Some { parsed = Ok def; _ } -> similarity_against_gold def.rules name
  | Some { parsed = Error _; _ } | None ->
    (* Unusable output: nothing matches the gold definition. *)
    0.

(* The per-activity similarity sweep — the inner loop of the LLM x
   activity x scheme table behind Figures 2a/2b. *)
let similarity_table session =
  List.map
    (fun (e : Maritime.Gold.entry) -> (e.name, similarity_of_definition session e.name))
    Maritime.Gold.entries

let average values =
  if values = [] then 0.
  else List.fold_left (fun acc (_, v) -> acc +. v) 0. values /. float_of_int (List.length values)

let generate ~model ~scheme () =
  let profile = Adg.Profiles.find ~model ~scheme in
  let session = Adg.Session.run (Adg.Profiles.backend profile) in
  let per_activity = similarity_table session in
  {
    session;
    label = model ^ Adg.Prompt.scheme_symbol scheme;
    per_activity;
    average = average per_activity;
  }

let generate_all () =
  List.concat_map
    (fun model ->
      List.map (fun scheme -> generate ~model ~scheme ())
        [ Adg.Prompt.Few_shot; Adg.Prompt.Chain_of_thought ])
    Adg.Profiles.models

let best_per_model generations =
  List.filter_map
    (fun model ->
      generations
      |> List.filter (fun g -> String.equal g.session.Adg.Session.model model)
      |> List.sort (fun a b -> Float.compare b.average a.average)
      |> function
      | best :: _ -> Some best
      | [] -> None)
    Adg.Profiles.models

type corrected = {
  generation : generation;
  corrected_label : string;
  ed : Rtec.Ast.t;
  correction : Adg.Correction.report;
  corrected_per_activity : (string * float) list;
  corrected_average : float;
}

let correct_one (g : generation) =
  let ed, report = Adg.Correction.correct g.session in
  let per_activity =
    List.map
      (fun (e : Maritime.Gold.entry) ->
        match Rtec.Ast.definition ed e.name with
        | Some def -> (e.name, similarity_against_gold def.rules e.name)
        | None -> (e.name, 0.))
      Maritime.Gold.entries
  in
  {
    generation = g;
    corrected_label =
      g.session.Adg.Session.model ^ Adg.Prompt.corrected_symbol g.session.Adg.Session.scheme;
    ed;
    correction = report;
    corrected_per_activity = per_activity;
    corrected_average = average per_activity;
  }

let correct_top ?(n = 3) generations =
  generations
  |> List.sort (fun a b -> Float.compare b.average a.average)
  |> List.filteri (fun i _ -> i < n)
  |> List.map correct_one

type accuracy_row = { label : string; per_activity_f1 : (string * float) list }

(* --- ablations --- *)

let scheme_comparison generations =
  List.map
    (fun model ->
      let avg scheme =
        match
          List.find_opt
            (fun g ->
              String.equal g.session.Adg.Session.model model
              && g.session.Adg.Session.scheme = scheme)
            generations
        with
        | Some g -> g.average
        | None -> 0.
      in
      (model, avg Adg.Prompt.Few_shot, avg Adg.Prompt.Chain_of_thought))
    Adg.Profiles.models

let zero_shot_ablation () =
  List.map
    (fun model ->
      let scheme = Adg.Profiles.reported_scheme model in
      let profile = Adg.Profiles.find ~model ~scheme in
      let session = Adg.Session.run (Adg.Profiles.zero_shot_backend profile) in
      let per_activity = similarity_table session in
      (model, average per_activity))
    Adg.Profiles.models

let assignment_ablation generations =
  List.map
    (fun (g : generation) ->
      let greedy =
        List.map
          (fun (e : Maritime.Gold.entry) ->
            match
              List.find_opt
                (fun (d : Adg.Session.generated_definition) -> d.activity = e.name)
                g.session.Adg.Session.definitions
            with
            | Some { parsed = Ok def; _ } ->
              ( e.name,
                similarity_against_gold ~strategy:Similarity.Distance.Greedy def.rules
                  e.name )
            | _ -> (e.name, 0.))
          Maritime.Gold.entries
      in
      (g.label, g.average, average greedy))
    generations

let predictive_accuracy ?window ?step ~dataset corrected =
  match Detection.detect ?window ?step ~event_description:Maritime.Gold.event_description
          ~dataset ()
  with
  | Error e -> Error ("gold recognition failed: " ^ e)
  | Ok reference ->
    let row (c : corrected) =
      match Detection.detect ?window ?step ~event_description:c.ed ~dataset () with
      | Error e -> Error (c.corrected_label ^ ": " ^ e)
      | Ok predicted ->
        let per_activity_f1 =
          List.map
            (fun (a : Detection.activity) ->
              let confusion =
                Metrics.compare_activity ~predicted ~reference ~indicator:a.indicator
              in
              (a.code, Metrics.f1 confusion))
            Detection.reported
        in
        Ok { label = c.corrected_label; per_activity_f1 }
    in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest -> (
        match row c with Error e -> Error e | Ok r -> collect (r :: acc) rest)
    in
    collect [] corrected
