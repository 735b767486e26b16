open Rtec
open Similarity

let t = Parser.parse_term
let float_eq = Alcotest.float 1e-9

(* --- Definition 4.1: ground expressions --- *)

let test_example_4_2 () =
  (* d(happensAt(entersArea(v42,a1),23), happensAt(inArea(v42,a1),23)) = 0.25 *)
  let e1 = t "happensAt(entersArea(v42, a1), 23)" in
  let e2 = t "happensAt(inArea(v42, a1), 23)" in
  Alcotest.check float_eq "paper example 4.2" 0.25 (Distance.ground e1 e2)

let test_ground_cases () =
  Alcotest.check float_eq "equal constants" 0. (Distance.ground (t "a") (t "a"));
  Alcotest.check float_eq "different constants" 1. (Distance.ground (t "a") (t "b"));
  Alcotest.check float_eq "equal numbers" 0. (Distance.ground (t "23") (t "23"));
  Alcotest.check float_eq "int vs equal real" 0. (Distance.ground (t "23") (t "23.0"));
  Alcotest.check float_eq "different arity" 1.
    (Distance.ground (t "p(a)") (t "p(a, b)"));
  Alcotest.check float_eq "different functor" 1. (Distance.ground (t "p(a)") (t "q(a)"));
  Alcotest.check float_eq "recursive halving" 0.25
    (Distance.ground (t "p(a, b)") (t "p(a, c)"))

let test_ground_rejects_variables () =
  Alcotest.check_raises "non-ground input"
    (Invalid_argument "Distance.ground: expressions must be ground") (fun () ->
      ignore (Distance.ground (t "p(X)") (t "p(a)")))

(* --- Definitions 4.3/4.5: sets of ground expressions --- *)

let test_example_4_6 () =
  let ea =
    [ t "happensAt(entersArea(v42, a1), 23)"; t "areaType(a1, fishing)";
      t "holdsAt(underway(v42) = true, 23)" ]
  in
  let eb = [ t "areaType(a1, fishing)"; t "happensAt(inArea(v42, a1), 23)" ] in
  let d = Distance.ground_sets ea eb in
  Alcotest.check (Alcotest.float 1e-4) "paper example 4.6" 0.4167 d;
  Alcotest.check (Alcotest.float 1e-4) "similarity" 0.5833 (1. -. d)

let test_ground_sets_edge_cases () =
  Alcotest.check float_eq "both empty" 0. (Distance.ground_sets [] []);
  Alcotest.check float_eq "one empty" 1. (Distance.ground_sets [ t "p(a)" ] []);
  Alcotest.check float_eq "identical sets" 0.
    (Distance.ground_sets [ t "p(a)"; t "q(b)" ] [ t "q(b)"; t "p(a)" ]);
  Alcotest.check float_eq "symmetric"
    (Distance.ground_sets [ t "p(a)" ] [ t "p(a)"; t "q(b)" ])
    (Distance.ground_sets [ t "p(a)"; t "q(b)" ] [ t "p(a)" ])

(* --- Definitions 4.7-4.10: variable instances --- *)

let rule_1 =
  List.hd
    (Parser.parse_clauses
       "initiatedAt(withinArea(Vl, AreaType) = true, T) :- \
        happensAt(entersArea(Vl, AreaID), T), areaType(AreaID, AreaType).")

let test_example_4_10 () =
  let vi = Var_instance.of_rule rule_1 in
  let sorted = List.sort compare in
  Alcotest.(check (list (list (pair string int))))
    "instances of Vl"
    (sorted
       [ [ ("initiatedAt", 1); ("=", 1); ("withinArea", 1) ];
         [ ("happensAt", 1); ("entersArea", 1) ] ])
    (Var_instance.instances vi "Vl");
  Alcotest.(check (list (list (pair string int))))
    "instances of AreaType"
    (sorted
       [ [ ("initiatedAt", 1); ("=", 1); ("withinArea", 2) ]; [ ("areaType", 2) ] ])
    (Var_instance.instances vi "AreaType");
  Alcotest.(check (list (list (pair string int))))
    "instances of AreaID"
    (sorted [ [ ("areaType", 1) ]; [ ("happensAt", 1); ("entersArea", 2) ] ])
    (Var_instance.instances vi "AreaID");
  Alcotest.(check (list (list (pair string int)))) "unknown variable" []
    (Var_instance.instances vi "Nope")

(* --- Definitions 4.11/4.12: rules --- *)

let rule_6 =
  (* Rule (1) with AreaID renamed to Area: equivalent, distance 0. *)
  List.hd
    (Parser.parse_clauses
       "initiatedAt(withinArea(Vl, AreaType) = true, T) :- \
        happensAt(entersArea(Vl, Area), T), areaType(Area, AreaType).")

let rule_7 =
  (* Rule (1) with the arguments of areaType reversed: not equivalent. *)
  List.hd
    (Parser.parse_clauses
       "initiatedAt(withinArea(Vl, AreaType) = true, T) :- \
        happensAt(entersArea(Vl, AreaID), T), areaType(AreaType, AreaID).")

let test_example_4_13_renaming () =
  Alcotest.check float_eq "alpha-equivalent rules have distance 0" 0.
    (Distance.rule rule_1 rule_6)

let test_example_4_13_transposed () =
  (* Following Definitions 4.11/4.12 exactly: head distance 0.015625, the
     happensAt pair contributes 0.0625 and the areaType pair 0.5, giving
     (0.015625 + 0.0625 + 0.5) / 3 = 0.192708... The paper's Example 4.13
     reports 0.1667 for the same sum — an arithmetic slip in the paper
     (0.578125 / 3 is not 0.1667); we follow the definitions. *)
  let vi1 = Var_instance.of_rule rule_1 and vi7 = Var_instance.of_rule rule_7 in
  let head_d = Distance.expression ~vi1 ~vi2:vi7 rule_1.Ast.head rule_7.Ast.head in
  Alcotest.check float_eq "head distance (paper: 0.015625)" 0.015625 head_d;
  let area_d =
    Distance.expression ~vi1 ~vi2:vi7 (List.nth rule_1.Ast.body 1)
      (List.nth rule_7.Ast.body 1)
  in
  Alcotest.check float_eq "areaType condition distance (paper: 0.5)" 0.5 area_d;
  let happens_d =
    Distance.expression ~vi1 ~vi2:vi7 (List.nth rule_1.Ast.body 0)
      (List.nth rule_7.Ast.body 0)
  in
  Alcotest.check float_eq "happensAt condition distance (paper: 0.0625)" 0.0625 happens_d;
  Alcotest.check float_eq "rule distance per Definition 4.12"
    ((0.015625 +. 0.0625 +. 0.5) /. 3.)
    (Distance.rule rule_1 rule_7)

let test_rule_distance_unmatched_conditions () =
  let r1 =
    List.hd
      (Parser.parse_clauses
         "initiatedAt(f(V) = true, T) :- happensAt(e(V), T), holdsAt(g(V) = true, T).")
  in
  let r2 = List.hd (Parser.parse_clauses "initiatedAt(f(V) = true, T) :- happensAt(e(V), T).") in
  (* Dropping a condition also changes the instance lists of V and T, so
     the shared head and happensAt literal are no longer at distance 0
     (Definition 4.11): head = 1/4*(1/8 + 1) = 9/32, happensAt =
     1/4*(1/2 + 1) = 3/8, plus the unmatched condition penalty 1. *)
  Alcotest.check float_eq "unmatched condition penalty"
    (((9. /. 32.) +. 1. +. (3. /. 8.)) /. 3.)
    (Distance.rule r1 r2)

(* --- Definition 4.14: event descriptions --- *)

let test_ed_identity () =
  let rules = Ast.all_rules Maritime.Gold.event_description in
  Alcotest.check float_eq "gold vs itself" 0. (Distance.event_description rules rules)

let test_ed_unmatched_rules () =
  let rules = (Maritime.Gold.definition "withinArea").rules in
  Alcotest.check float_eq "vs empty" 1. (Distance.event_description rules []);
  Alcotest.check float_eq "similarity vs empty" 0. (Distance.similarity rules [])

let test_ed_wrong_kind_is_zero () =
  (* A statically determined definition re-expressed as a simple fluent
     scores 0, as Gemma-2's trawling did. *)
  let gold = (Maritime.Gold.definition "trawling").rules in
  let wrong =
    Adg.Error_model.apply Adg.Error_model.Wrong_kind (Maritime.Gold.definition "trawling")
  in
  Alcotest.check float_eq "wrong fluent kind" 0. (Distance.similarity wrong.rules gold)

(* --- differential: PR 4 fast paths vs. the pre-overhaul reference --- *)

(* The similarity pipeline exactly as it stood before the PR 4 overhaul:
   pad-to-square assignment (via the square solver kept as the oracle),
   structural instance-list comparison instead of interned fingerprints,
   [Var_instance.of_rule] recomputed inside every rule pair, and no
   rule-distance cache. The fast paths must reproduce it bit for bit. *)
module Reference = struct
  let solve_rectangular cost =
    let m = Array.length cost in
    if m = 0 then 0.
    else begin
      let k = Array.length cost.(0) in
      let padded =
        Array.map (fun row -> Array.init m (fun j -> if j < k then row.(j) else 0.)) cost
      in
      let _, total = Oracle.Kuhn_munkres.solve padded in
      total
    end

  let numeric = function
    | Term.Int n -> Some (float_of_int n)
    | Term.Real r -> Some r
    | _ -> None

  let rec generic var_case u1 u2 =
    match (u1, u2) with
    | Term.Var v1, Term.Var v2 -> var_case v1 v2
    | Term.Var _, _ | _, Term.Var _ -> 1.
    | _ -> (
      match (numeric u1, numeric u2) with
      | Some x, Some y -> if Float.equal x y then 0. else 1.
      | _ -> (
        match (u1, u2) with
        | Term.Atom a, Term.Atom b -> if String.equal a b then 0. else 1.
        | Term.Compound (p, ss), Term.Compound (q, ts)
          when String.equal p q && List.length ss = List.length ts ->
          let k = float_of_int (List.length ss) in
          let sum =
            List.fold_left2 (fun acc s t -> acc +. generic var_case s t) 0. ss ts
          in
          sum /. (2. *. k)
        | _ -> 1.))

  (* Structural instance-list equality, as [equal_instances] computed it
     before fingerprint interning. *)
  let expression ~vi1 ~vi2 u1 u2 =
    let var_case v1 v2 =
      let i1 = Var_instance.instances vi1 v1 and i2 = Var_instance.instances vi2 v2 in
      if i1 <> [] && i1 = i2 then 0. else 1.
    in
    generic var_case u1 u2

  let cost_matrix d rows cols =
    Array.init (Array.length rows) (fun i ->
        Array.init (Array.length cols) (fun j -> d rows.(i) cols.(j)))

  let set_distance d xs ys =
    let xs, ys = if List.length xs >= List.length ys then (xs, ys) else (ys, xs) in
    let m = List.length xs and k = List.length ys in
    if m = 0 then 0.
    else begin
      let total = solve_rectangular (cost_matrix d (Array.of_list xs) (Array.of_list ys)) in
      (float_of_int (m - k) +. total) /. float_of_int m
    end

  let rule (r1 : Ast.rule) (r2 : Ast.rule) =
    let vi1 = Var_instance.of_rule r1 and vi2 = Var_instance.of_rule r2 in
    let head_distance = expression ~vi1 ~vi2 r1.head r2.head in
    let b1, b2, vi1, vi2 =
      if List.length r1.body >= List.length r2.body then (r1.body, r2.body, vi1, vi2)
      else (r2.body, r1.body, vi2, vi1)
    in
    let m = List.length b1 and k = List.length b2 in
    let body_total =
      if m = 0 then 0.
      else if k = 0 then float_of_int m
      else
        solve_rectangular
          (cost_matrix (fun a b -> expression ~vi1 ~vi2 a b) (Array.of_list b1)
             (Array.of_list b2))
        +. float_of_int (m - k)
    in
    (head_distance +. body_total) /. float_of_int (m + 1)

  let event_description kb1 kb2 = set_distance (fun a b -> rule a b) kb1 kb2
end

let test_differential_gold_catalogue () =
  (* Every gold definition against every other: 25 x 25 event-description
     distances, covering simple and statically determined rules, shared
     lower-level fluents and all body shapes in the catalogue. Exact
     float equality: the fast paths change how the optimum is found, not
     what it sums. *)
  List.iter
    (fun (e1 : Maritime.Gold.entry) ->
      let r1 = (Maritime.Gold.definition e1.name).rules in
      List.iter
        (fun (e2 : Maritime.Gold.entry) ->
          let r2 = (Maritime.Gold.definition e2.name).rules in
          Alcotest.check float_eq
            (e1.name ^ " vs " ^ e2.name)
            (Reference.event_description r1 r2)
            (Distance.event_description r1 r2))
        Maritime.Gold.entries)
    Maritime.Gold.entries

let test_prepared_matches_unprepared () =
  let gold = Ast.all_rules Maritime.Gold.event_description in
  let mutated =
    Ast.all_rules
      (List.map
         (fun d -> Adg.Error_model.apply Adg.Error_model.Add_redundant d)
         Maritime.Gold.event_description)
  in
  let pg = Distance.prepare gold and pm = Distance.prepare mutated in
  Alcotest.check float_eq "prepared = list API"
    (Distance.event_description mutated gold)
    (Distance.event_description_prepared pm pg);
  (* Second call is served by the rule-pair cache; the value must not
     move. *)
  Alcotest.check float_eq "cache hit returns the same distance"
    (Distance.event_description_prepared pm pg)
    (Distance.event_description_prepared pm pg);
  Alcotest.check float_eq "similarity_prepared"
    (Distance.similarity mutated gold)
    (Distance.similarity_prepared pm pg)

(* --- properties --- *)

let mutated_definition_gen =
  let open QCheck.Gen in
  let entries = Array.of_list Maritime.Gold.entries in
  let mutation =
    oneof
      [ return Adg.Error_model.Confuse_union;
        return Adg.Error_model.Add_redundant;
        return Adg.Error_model.Extra_rule;
        map (fun i -> Adg.Error_model.Drop_rule i) (int_bound 5);
        map (fun i -> Adg.Error_model.Drop_condition i) (int_bound 5);
        return (Adg.Error_model.Rename ("entersArea", "inArea"));
        return (Adg.Error_model.Transpose_args "areaType") ]
  in
  let* entry = oneofa entries in
  let* mutations = list_size (int_bound 3) mutation in
  let d = Parser.parse_definition ~name:entry.Maritime.Gold.name entry.source in
  return (entry.name, Adg.Error_model.apply_all mutations d)

let arbitrary_mutated =
  QCheck.make
    ~print:(fun (n, d) -> n ^ ":\n" ^ Printer.definition_to_string d)
    mutated_definition_gen

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let properties =
  [
    prop "similarity lies in [0, 1]" 200 arbitrary_mutated (fun (name, d) ->
        let s = Distance.similarity d.Ast.rules (Maritime.Gold.definition name).rules in
        s >= 0. && s <= 1.0000001);
    prop "distance is symmetric" 100 arbitrary_mutated (fun (name, d) ->
        let gold = (Maritime.Gold.definition name).rules in
        Float.abs
          (Distance.event_description d.Ast.rules gold
          -. Distance.event_description gold d.Ast.rules)
        < 1e-9);
    prop "distance to self is 0" 100 arbitrary_mutated (fun (_, d) ->
        Float.abs (Distance.event_description d.Ast.rules d.Ast.rules) < 1e-9);
    prop "consistent variable renaming preserves distance 0" 100
      (QCheck.make (QCheck.Gen.oneofa (Array.of_list Maritime.Gold.entries)))
      (fun entry ->
        let d = Parser.parse_definition ~name:entry.Maritime.Gold.name entry.source in
        let renamed =
          List.map
            (fun (r : Ast.rule) ->
              { r with
                Ast.head = Unify.rename_apart ~suffix:"z" r.head;
                body = List.map (Unify.rename_apart ~suffix:"z") r.body })
            d.rules
        in
        Float.abs (Distance.event_description d.rules renamed) < 1e-9);
    prop "greedy distance is an upper bound on Hungarian" 200 arbitrary_mutated
      (fun (name, d) ->
        let gold = (Maritime.Gold.definition name).rules in
        Distance.event_description ~strategy:Distance.Greedy d.Ast.rules gold
        >= Distance.event_description d.Ast.rules gold -. 1e-9);
    prop "fast paths match the pre-overhaul reference" 150 arbitrary_mutated
      (fun (name, d) ->
        let gold = (Maritime.Gold.definition name).rules in
        Float.equal
          (Distance.event_description d.Ast.rules gold)
          (Reference.event_description d.Ast.rules gold));
  ]

let suite =
  [
    Alcotest.test_case "example 4.2 (ground distance)" `Quick test_example_4_2;
    Alcotest.test_case "ground distance cases" `Quick test_ground_cases;
    Alcotest.test_case "ground distance rejects variables" `Quick
      test_ground_rejects_variables;
    Alcotest.test_case "example 4.6 (set distance)" `Quick test_example_4_6;
    Alcotest.test_case "set distance edge cases" `Quick test_ground_sets_edge_cases;
    Alcotest.test_case "example 4.10 (variable instances)" `Quick test_example_4_10;
    Alcotest.test_case "example 4.13: alpha renaming" `Quick test_example_4_13_renaming;
    Alcotest.test_case "example 4.13: transposed arguments" `Quick
      test_example_4_13_transposed;
    Alcotest.test_case "unmatched body conditions" `Quick
      test_rule_distance_unmatched_conditions;
    Alcotest.test_case "event description identity" `Quick test_ed_identity;
    Alcotest.test_case "unmatched rules" `Quick test_ed_unmatched_rules;
    Alcotest.test_case "wrong fluent kind scores 0" `Quick test_ed_wrong_kind_is_zero;
    Alcotest.test_case "differential vs reference on the gold catalogue" `Quick
      test_differential_gold_catalogue;
    Alcotest.test_case "prepared sides and rule-pair cache" `Quick
      test_prepared_matches_unprepared;
  ]
  @ properties
