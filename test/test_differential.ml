(* Differential testing: the engine against independent, brute-force
   oracles on randomly generated inputs, plus robustness fuzzing. *)

open Rtec

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* --- oracle 1: single boolean fluent under inertia --- *)

(* holdsAt(f=true, t) iff some initiation happened strictly before t and no
   termination happened strictly in between: initiatedAt(F, Ts) yields
   holdsAt(F, Ts+1) even when terminatedAt(F, Ts) also fires. This is the
   canonical Event Calculus semantics, computed pointwise. *)
let inertia_oracle ~starts ~stops t =
  List.exists
    (fun ts ->
      ts < t && not (List.exists (fun te -> ts < te && te < t) stops))
    starts

let times_gen = QCheck.Gen.(list_size (int_bound 12) (int_bound 50))

let inertia_case =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "starts=[%s] stops=[%s]"
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))
    QCheck.Gen.(pair times_gen times_gen)

let run_single_fluent ~starts ~stops =
  let ed =
    [ Parser.parse_definition ~name:"f"
        "initiatedAt(f(x) = true, T) :- happensAt(a(x), T).\n\
         terminatedAt(f(x) = true, T) :- happensAt(b(x), T)." ]
  in
  let events =
    List.map (fun t -> { Stream.time = t; term = Parser.parse_term "a(x)" }) starts
    @ List.map (fun t -> { Stream.time = t; term = Parser.parse_term "b(x)" }) stops
  in
  let stream = Stream.make events in
  match
    Engine.run ~plan:(Engine.plan ed) ~knowledge:Knowledge.empty ~stream ~from:0 ~until:60 ()
  with
  | Ok result -> result
  | Error e -> failwith e

let prop_inertia =
  prop "engine matches the pointwise inertia oracle" 300 inertia_case
    (fun (starts, stops) ->
      let result = run_single_fluent ~starts ~stops in
      let fvp = (Parser.parse_term "f(x)", Term.Atom "true") in
      List.for_all
        (fun t -> Engine.holds_at result fvp t = inertia_oracle ~starts ~stops t)
        (List.init 62 (fun i -> i)))

(* --- oracle 2: multi-valued fluent, last setter wins --- *)

let setter_oracle assignments value t =
  (* The value set by the latest assignment strictly before t. *)
  let before = List.filter (fun (ts, _) -> ts < t) assignments in
  match List.sort (fun (a, _) (b, _) -> Int.compare b a) before with
  | (_, v) :: _ -> v = value
  | [] -> false

let setter_case =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (t, v) -> Printf.sprintf "%d:%s" t v) l))
    QCheck.Gen.(
      list_size (int_bound 12) (pair (int_bound 50) (oneofl [ "red"; "green"; "blue" ]))
      >|= fun l ->
      (* distinct time-points: simultaneous assignments are ambiguous *)
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (t, _) ->
          if Hashtbl.mem seen t then false
          else begin
            Hashtbl.add seen t ();
            true
          end)
        l)

let run_setters assignments =
  let ed =
    [ Parser.parse_definition ~name:"light"
        "initiatedAt(light(x) = red, T) :- happensAt(to_red(x), T).\n\
         initiatedAt(light(x) = green, T) :- happensAt(to_green(x), T).\n\
         initiatedAt(light(x) = blue, T) :- happensAt(to_blue(x), T)." ]
  in
  let events =
    List.map
      (fun (t, v) -> { Stream.time = t; term = Parser.parse_term ("to_" ^ v ^ "(x)") })
      assignments
  in
  match
    Engine.run ~plan:(Engine.plan ed) ~knowledge:Knowledge.empty
      ~stream:(Stream.make events) ~from:0 ~until:60 ()
  with
  | Ok result -> result
  | Error e -> failwith e

let prop_setters =
  prop "multi-valued fluents: last setter wins" 300 setter_case (fun assignments ->
      let result = run_setters assignments in
      List.for_all
        (fun t ->
          List.for_all
            (fun v ->
              let fvp = (Parser.parse_term "light(x)", Term.Atom v) in
              Engine.holds_at result fvp t = setter_oracle assignments v t)
            [ "red"; "green"; "blue" ])
        (List.init 62 (fun i -> i)))

(* --- oracle 3: windowed run equals a single window --- *)

let window_case =
  QCheck.make
    ~print:(fun (w, s, starts, stops) ->
      Printf.sprintf "window=%d step=%d starts=[%s] stops=[%s]" w s
        (String.concat ";" (List.map string_of_int starts))
        (String.concat ";" (List.map string_of_int stops)))
    QCheck.Gen.(
      int_range 5 40 >>= fun w ->
      int_range 1 w >>= fun s ->
      pair times_gen times_gen >|= fun (a, b) -> (w, s, a, b))

let prop_windowing =
  prop "sliding windows agree with a single window" 200 window_case
    (fun (window, step, starts, stops) ->
      QCheck.assume (starts <> [] || stops <> []);
      let ed =
        [ Parser.parse_definition ~name:"f"
            "initiatedAt(f(x) = true, T) :- happensAt(a(x), T).\n\
             terminatedAt(f(x) = true, T) :- happensAt(b(x), T)." ]
      in
      let events =
        List.map (fun t -> { Stream.time = t; term = Parser.parse_term "a(x)" }) starts
        @ List.map (fun t -> { Stream.time = t; term = Parser.parse_term "b(x)" }) stops
      in
      let stream = Stream.make events in
      match
        ( Oracle.Window.run ~window ~step ~event_description:ed ~knowledge:Knowledge.empty
            ~stream (),
          Oracle.Window.run ~event_description:ed ~knowledge:Knowledge.empty ~stream () )
      with
      | Ok (windowed, _), Ok (single, _) ->
        let fvp = (Parser.parse_term "f(x)", Term.Atom "true") in
        let _, hi = Stream.extent stream in
        List.for_all
          (fun t ->
            Interval.mem t (Engine.intervals windowed fvp)
            = Interval.mem t (Engine.intervals single fvp))
          (List.init (hi + 1) (fun i -> i))
      | _ -> false)

(* --- oracle 4: incremental windowed recognition over the maritime gold
   standard is bit-identical to a from-scratch single-pass evaluation ---

   This is the differential gate for the incremental window layer: the
   delta evaluation (step < window), the plain sliding case (step =
   window), and the carried grounding universe must reproduce exactly the
   FVPs and maximal intervals of one [Engine.run] over the whole extent,
   modulo the final horizon truncation. *)

let maritime_dataset =
  lazy
    (Maritime.Dataset.generate
       ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 1 } ())

let normalised lo hi result =
  List.sort compare
    (List.filter_map
       (fun ((f, v), spans) ->
         let spans = Interval.clamp lo (hi + 2) spans in
         if Interval.is_empty spans then None
         else Some ((Term.to_string f, Term.to_string v), Interval.to_list spans))
       result)

let test_maritime_incremental_equals_single () =
  let data = Lazy.force maritime_dataset in
  let ed = Maritime.Gold.event_description in
  let stream = data.Maritime.Dataset.stream in
  let lo, hi = Stream.extent stream in
  let single =
    match
      Engine.run ~plan:(Engine.plan ed) ~knowledge:data.knowledge ~stream ~from:lo ~until:hi ()
    with
    | Ok r -> normalised lo hi r
    | Error e -> Alcotest.failf "single-pass run failed: %s" e
  in
  Alcotest.(check bool) "single-pass recognises activities" true (single <> []);
  List.iter
    (fun (window, step) ->
      match
        Oracle.Window.run ~window ~step ~event_description:ed ~knowledge:data.knowledge ~stream ()
      with
      | Error e -> Alcotest.failf "windowed run (%d/%d) failed: %s" window step e
      | Ok (result, stats) ->
        Alcotest.(check bool)
          (Printf.sprintf "window=%d step=%d ran several queries" window step)
          true
          (stats.Window.queries > 1);
        Alcotest.(check (list (pair (pair string string) (list (pair int int)))))
          (Printf.sprintf "window=%d step=%d is bit-identical to single-pass" window step)
          single (normalised lo hi result))
    [ (3600, 1800); (7200, 3600); (7200, 7200) ]

(* --- robustness: the engine survives arbitrary mutated event descriptions --- *)

let tiny_dataset =
  lazy (Maritime.Dataset.generate ~config:{ Maritime.Dataset.seed = 3; replicas = 1; nominal = 0 } ())

let mutations_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (oneof
         [ return Adg.Error_model.Confuse_union;
           return Adg.Error_model.Add_redundant;
           return Adg.Error_model.Extra_rule;
           return Adg.Error_model.Wrong_kind;
           map (fun i -> Adg.Error_model.Drop_rule i) (int_bound 6);
           map (fun i -> Adg.Error_model.Drop_condition i) (int_bound 6);
           map2
             (fun a b -> Adg.Error_model.Replace_reference (a, b))
             (oneofl [ "trawlSpeed"; "lowSpeed"; "stopped" ])
             (oneofl [ "ghost"; "phantom" ]);
           return (Adg.Error_model.Transpose_args "areaType") ]))

let mutated_ed_case =
  QCheck.make
    ~print:(fun ed -> Rtec.Printer.event_description_to_string ed)
    QCheck.Gen.(
      list_size (return (List.length Maritime.Gold.entries)) mutations_gen >|= fun ms ->
      List.map2
        (fun (e : Maritime.Gold.entry) mutations ->
          Adg.Error_model.apply_all mutations
            (Parser.parse_definition ~name:e.name e.source))
        Maritime.Gold.entries ms)

let prop_engine_robust =
  prop "the engine never crashes on mutated event descriptions" 25 mutated_ed_case
    (fun ed ->
      let data = Lazy.force tiny_dataset in
      match
        Oracle.Window.run ~window:7200 ~step:7200 ~event_description:ed
          ~knowledge:data.knowledge ~stream:data.stream ()
      with
      | Ok _ | Error _ -> true)

(* --- fuzzing: the parser returns errors instead of raising --- *)

let garbage_gen =
  QCheck.Gen.(
    oneof
      [ string_size (int_bound 80) ~gen:printable;
        (* byte-level garbage *)
        string_size (int_bound 40) ~gen:(map Char.chr (int_bound 255));
        (* near-miss RTEC text *)
        map
          (fun k ->
            String.concat ""
              (List.filteri (fun i _ -> i <> k)
                 (String.fold_right (fun c acc -> String.make 1 c :: acc)
                    "initiatedAt(f(V) = true, T) :- happensAt(e(V), T)." [])))
          (int_bound 50) ])

let prop_parser_total =
  prop "parse_clauses_result is total" 500 (QCheck.make ~print:(fun s -> s) garbage_gen)
    (fun input ->
      match Parser.parse_clauses_result input with Ok _ | Error _ -> true)

let suite =
  [ prop_inertia; prop_setters; prop_windowing;
    Alcotest.test_case "incremental windowed recognition equals single-pass (maritime)"
      `Quick test_maritime_incremental_equals_single;
    prop_engine_robust; prop_parser_total ]
