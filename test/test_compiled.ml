(* The rule compiler against its differential oracle: recognition with
   [compile:true] must be bit-identical — same fluent-value pairs, same
   intervals, same result order, same telemetry counters, same
   derivation records — to the interpreted run, on the full gold
   catalogues, on randomised streams, sequentially and sharded, with
   every instrumentation mode on and off. Plus unit tests for the
   intern-table invariants the compiled closures rely on. *)

open Rtec

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* Bit-identity means physical result-list order too, so compare with
   structural equality on the raw result, not on a sorted projection. *)
let check_identical msg compiled interpreted =
  Alcotest.(check bool) (msg ^ ": same fvp order") true
    (List.map fst compiled = List.map fst interpreted);
  Alcotest.(check bool) (msg ^ ": same intervals") true
    (List.for_all2
       (fun (_, a) (_, b) -> Interval.equal a b)
       compiled interpreted)

let window_run ~compile ~event_description ~knowledge ~stream () =
  match
    Window.run ~window:3600 ~step:1800 ~compile ~event_description ~knowledge ~stream ()
  with
  | Ok (r, _) -> r
  | Error e -> failwith e

(* --- gold catalogues --- *)

let maritime_dataset =
  lazy
    (Maritime.Dataset.generate
       ~config:{ Maritime.Dataset.seed = 7; replicas = 1; nominal = 1 }
       ())

let test_maritime_gold () =
  let d = Lazy.force maritime_dataset in
  let run compile =
    window_run ~compile ~event_description:Maritime.Gold.event_description
      ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()
  in
  let compiled = run true and interpreted = run false in
  Alcotest.(check bool) "recognises something" true (compiled <> []);
  check_identical "maritime gold" compiled interpreted

let test_fleet_gold () =
  let stream, knowledge = Fleet.generate () in
  let ed = Domain.event_description Fleet.domain in
  let run compile = window_run ~compile ~event_description:ed ~knowledge ~stream () in
  let compiled = run true and interpreted = run false in
  Alcotest.(check bool) "recognises something" true (compiled <> []);
  check_identical "fleet gold" compiled interpreted

(* Nearly the whole gold catalogue must actually compile: a silent mass
   fallback would pass every differential test while deleting the
   optimisation. One gold rule (a termination with an unbound head
   variable) is legitimately interpreted. *)
let test_gold_compiles () =
  let d = Lazy.force maritime_dataset in
  let program =
    Compiled.compile ~event_description:Maritime.Gold.event_description
      ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()
  in
  let compiled, fallback = Compiled.stats program in
  Alcotest.(check bool) "most rules compile" true (compiled >= 60);
  Alcotest.(check bool) "at most one fallback" true (fallback <= 1)

(* --- sharded runtime --- *)

let runtime_run ?shards ~jobs ~compile ~event_description ~knowledge ~stream () =
  match
    Runtime.run
      ~config:(Runtime.config ~window:3600 ~step:1800 ~jobs ?shards ~compile ())
      ~event_description ~knowledge ~stream ()
  with
  | Ok (r, _) -> r
  | Error e -> failwith e

(* [shards:4] forces the partition even where the clamp serialises the
   domains: each shard compiles its own program, and the merged result
   must still be bit-identical to the sequential interpreter. *)
let test_sharded () =
  let d = Lazy.force maritime_dataset in
  let run ?shards ~jobs ~compile () =
    runtime_run ?shards ~jobs ~compile ~event_description:Maritime.Gold.event_description
      ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()
  in
  let interpreted = run ~jobs:1 ~compile:false () in
  check_identical "jobs 1" (run ~jobs:1 ~compile:true ()) interpreted;
  check_identical "jobs 4" (run ~jobs:4 ~shards:4 ~compile:true ()) interpreted;
  check_identical "jobs 4 interpreted" (run ~jobs:4 ~shards:4 ~compile:false ()) interpreted

(* --- instrumentation modes --- *)

(* The compiled evaluator must charge the shared counters exactly like
   the interpreter: rule evaluations one per transition rule per window,
   cache probes one hit or miss per holdsAt resolution. Only the
   compiled.hit/miss split may differ (it reports which evaluator ran). *)
let test_counter_parity () =
  let d = Lazy.force maritime_dataset in
  let counters_for compile =
    Telemetry.Metrics.reset ();
    Telemetry.Metrics.enable ();
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Metrics.disable ();
        Telemetry.Metrics.reset ())
      (fun () ->
        let result =
          window_run ~compile ~event_description:Maritime.Gold.event_description
            ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()
        in
        let snap = Telemetry.Metrics.snapshot () in
        let count name = Option.value ~default:0 (Telemetry.Metrics.find_counter snap name) in
        ( result,
          count "engine.rule_evaluations",
          count "engine.cache.hit",
          count "engine.cache.miss",
          count "engine.compiled.hit" ))
  in
  let rc, evals_c, hit_c, miss_c, compiled_c = counters_for true in
  let ri, evals_i, hit_i, miss_i, compiled_i = counters_for false in
  check_identical "telemetry on" rc ri;
  Alcotest.(check int) "rule evaluations" evals_i evals_c;
  Alcotest.(check int) "cache hits" hit_i hit_c;
  Alcotest.(check int) "cache misses" miss_i miss_c;
  Alcotest.(check bool) "compiled rules actually ran" true (compiled_c > 0);
  Alcotest.(check int) "interpreter never hits compiled code" 0 compiled_i

(* With the derivation recorder on, the compiled evaluator emits the same
   compact records, in the same order, as the interpreter (rule emissions
   through the sink, carries, patterns), so a compile:true run decodes to
   exactly the interpreter's proof trees — including the lazily
   reconstructed per-condition step trails. The compiled chains must
   actually run (no silent interpreter fallback while recording). *)
let derivation_identical ~event_description ~knowledge ~stream () =
  let rules = Engine.labelled_rules event_description in
  let traced compile =
    Derivation.reset ();
    Derivation.enable ();
    Telemetry.Metrics.reset ();
    Telemetry.Metrics.enable ();
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Metrics.disable ();
        Telemetry.Metrics.reset ();
        Derivation.disable ();
        Derivation.reset ())
      (fun () ->
        let result = window_run ~compile ~event_description ~knowledge ~stream () in
        let snap = Telemetry.Metrics.snapshot () in
        let hits =
          Option.value ~default:0 (Telemetry.Metrics.find_counter snap "engine.compiled.hit")
        in
        (result, Derivation.events ~rules (), hits))
  in
  let rc, events_c, hits_c = traced true in
  let ri, events_i, hits_i = traced false in
  check_identical "derivation on" rc ri;
  Alcotest.(check bool) "derivation recorded" true (events_c <> []);
  Alcotest.(check bool) "identical derivation records" true (events_c = events_i);
  Alcotest.(check bool) "compiled chains ran while recording" true (hits_c > 0);
  Alcotest.(check int) "interpreter never hits compiled code" 0 hits_i

let test_derivation_identical_fleet () =
  let stream, knowledge = Fleet.generate () in
  derivation_identical ~event_description:(Domain.event_description Fleet.domain) ~knowledge
    ~stream ()

let test_derivation_identical_maritime () =
  let d = Lazy.force maritime_dataset in
  derivation_identical ~event_description:Maritime.Gold.event_description
    ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream ()

(* --- allocation and coverage bounds ---

   Exact, count-based bounds on the compiled hot path, over one batch
   [Runtime.run] per fixture at window 3600 / step 1800 and jobs 1, with
   telemetry off, so the counts include whatever the disabled probes
   allocate. [Gc.minor_words] counts every word the calling domain
   allocates on the minor heap, so each count repeats to the word. The
   pinned counts were measured with these exact calls; a run may
   allocate at most 1.25x its pin — room for a workload tweak, none for
   losing the compiled path's cut (interpreted maritime allocates 12.7x
   the compiled run). *)

let bounds_maritime =
  lazy
    (Maritime.Dataset.generate
       ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 1 }
       ())

(* [(name, run ~compile, compiled pin, interpreted pin)] *)
let bound_fixtures () =
  let d = Lazy.force bounds_maritime in
  let fleet_stream, fleet_knowledge = Fleet.generate () in
  let fleet_ed = Domain.event_description Fleet.domain in
  let run ~event_description ~knowledge ~stream ~compile () =
    ignore (runtime_run ~jobs:1 ~compile ~event_description ~knowledge ~stream ())
  in
  [
    ( "maritime",
      run ~event_description:Maritime.Gold.event_description
        ~knowledge:d.Maritime.Dataset.knowledge ~stream:d.Maritime.Dataset.stream,
      2_262_797.,
      28_724_102. );
    ( "fleet",
      run ~event_description:fleet_ed ~knowledge:fleet_knowledge ~stream:fleet_stream,
      300_962.,
      583_345. );
  ]

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_within_pin msg ~pin words =
  if words > 1.25 *. pin then
    Alcotest.failf "%s: %.0f minor words, over 1.25x the pinned %.0f" msg words pin

let test_allocation_bounds () =
  List.iter
    (fun (name, run, compiled_pin, interpreted_pin) ->
      check_within_pin (name ^ " compiled") ~pin:compiled_pin
        (minor_words (run ~compile:true));
      check_within_pin (name ^ " interpreted") ~pin:interpreted_pin
        (minor_words (run ~compile:false)))
    (bound_fixtures ())

(* Always-on provenance must stay cheap on the compiled path: recording
   derivations may at most add half again to a run's allocation
   (measured: x1.07 maritime, x1.13 fleet). *)
let test_recorder_allocation () =
  List.iter
    (fun (name, run, _, _) ->
      let off = minor_words (run ~compile:true) in
      Derivation.reset ();
      Derivation.enable ();
      let on =
        Fun.protect
          ~finally:(fun () ->
            Derivation.disable ();
            Derivation.reset ())
          (fun () -> minor_words (run ~compile:true))
      in
      if on > 1.5 *. off then
        Alcotest.failf "%s: recorder on allocates %.0f minor words, x%.2f of %.0f off" name
          on (on /. off) off)
    (bound_fixtures ())

(* Rules that silently drop out of compilation pass every differential
   test. Over both compiled fixtures at most 3.28% of transition-rule
   evaluations may fall back to the interpreter (measured: 16 of 1,251). *)
let test_compiled_miss_rate () =
  Telemetry.Metrics.reset ();
  Telemetry.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Metrics.disable ();
      Telemetry.Metrics.reset ())
    (fun () ->
      List.iter (fun (_, run, _, _) -> run ~compile:true ()) (bound_fixtures ());
      let snap = Telemetry.Metrics.snapshot () in
      let count name = Option.value ~default:0 (Telemetry.Metrics.find_counter snap name) in
      let miss = count "engine.compiled.miss" in
      let total = count "engine.compiled.hit" + miss in
      if total = 0 || float_of_int miss > 0.0328 *. float_of_int total then
        Alcotest.failf "compiled miss rate %d / %d, over 0.0328" miss total)

(* --- randomised streams --- *)

(* A small description covering the compiled fragment's moving parts:
   inertia transitions, a holdsAt probe against a sibling fluent, a
   numeric comparison on an event argument and a knowledge lookup. *)
let random_ed =
  [
    Parser.parse_definition ~name:"f"
      "initiatedAt(f(X) = true, T) :- happensAt(a(X), T).\n\
       terminatedAt(f(X) = true, T) :- happensAt(b(X), T).";
    Parser.parse_definition ~name:"g"
      "initiatedAt(g(X) = true, T) :- happensAt(c(X, V), T), holdsAt(f(X) = true, T), V > 3.\n\
       terminatedAt(g(X) = true, T) :- happensAt(b(X), T).";
    Parser.parse_definition ~name:"h"
      "initiatedAt(h(X) = true, T) :- happensAt(a(X), T), kind(X, fast).\n\
       terminatedAt(h(X) = true, T) :- happensAt(b(X), T).";
  ]

let random_knowledge =
  Knowledge.of_list [ Parser.parse_term "kind(x, fast)"; Parser.parse_term "kind(y, slow)" ]

let random_stream_case =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 40)
        (triple (int_bound 2) (oneofl [ "x"; "y" ]) (pair (int_bound 120) (int_bound 8))))
  in
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (k, e, (t, v)) -> Printf.sprintf "%d/%s@%d(%d)" k e t v) evs))
    gen

let events_of_case evs =
  List.map
    (fun (kind, entity, (time, v)) ->
      let term =
        match kind with
        | 0 -> Parser.parse_term (Printf.sprintf "a(%s)" entity)
        | 1 -> Parser.parse_term (Printf.sprintf "b(%s)" entity)
        | _ -> Parser.parse_term (Printf.sprintf "c(%s, %d)" entity v)
      in
      { Stream.time; term })
    evs

let prop_random_streams =
  prop "compiled equals interpreted on random streams" 150 random_stream_case (fun evs ->
      let stream = Stream.make (events_of_case evs) in
      let run compile =
        match
          Window.run ~window:40 ~step:20 ~compile ~event_description:random_ed
            ~knowledge:random_knowledge ~stream ()
        with
        | Ok (r, _) -> r
        | Error e -> failwith e
      in
      let norm r = List.map (fun (fv, spans) -> (fv, Interval.to_list spans)) r in
      norm (run true) = norm (run false))

(* --- intern-table invariants --- *)

let test_intern_roundtrip () =
  let tbl = Intern.create () in
  let terms =
    List.map Parser.parse_term
      [ "a"; "f(x)"; "f(y)"; "f(x, 3)"; "g(f(x), 2.5)"; "42"; "2.5" ]
  in
  let ids = List.map (Intern.id_of_term tbl) terms in
  (* Dense, distinct ids in first-interning order. *)
  Alcotest.(check (list int)) "dense ids" (List.init (List.length terms) Fun.id) ids;
  List.iter2
    (fun t id ->
      Alcotest.(check bool) "round-trip preserves equality" true
        (Term.equal t (Intern.term_of_id tbl id));
      Alcotest.(check (option int)) "find_term agrees" (Some id) (Intern.find_term tbl t);
      Alcotest.(check int) "re-interning is stable" id (Intern.id_of_term tbl t))
    terms ids;
  Alcotest.(check (option int)) "unknown term is absent" None
    (Intern.find_term tbl (Parser.parse_term "never(seen)"))

let test_intern_fvp () =
  let tbl = Intern.create () in
  let f = Parser.parse_term "moving(v1)" and v = Term.Atom "true" in
  let id = Intern.fvp_of_terms tbl f v in
  let f', v' = Intern.fvp_terms tbl id in
  Alcotest.(check bool) "fvp round-trip" true (Term.equal f f' && Term.equal v v');
  Alcotest.(check int) "fvp re-interning is stable" id (Intern.fvp_of_terms tbl f v);
  Alcotest.(check (option int)) "find_fvp_terms agrees" (Some id)
    (Intern.find_fvp_terms tbl f v);
  let fid = Intern.id_of_term tbl f and vid = Intern.id_of_term tbl v in
  Alcotest.(check int) "component ids" fid (Intern.fvp_fluent_id tbl id);
  Alcotest.(check int) "component ids" vid (Intern.fvp_value_id tbl id)

(* Ids baked into compiled closures must survive later growth: interning
   a second wave of terms (as later windows do) leaves every earlier id
   and its term untouched. *)
let test_intern_stability () =
  let tbl = Intern.create () in
  let wave n = List.init 50 (fun i -> Parser.parse_term (Printf.sprintf "ev(e%d, %d)" i n)) in
  let first = List.map (fun t -> (t, Intern.id_of_term tbl t)) (wave 0) in
  ignore (List.map (Intern.id_of_term tbl) (wave 1));
  ignore (List.map (Intern.id_of_term tbl) (wave 2));
  List.iter
    (fun (t, id) ->
      Alcotest.(check (option int)) "id stable across growth" (Some id)
        (Intern.find_term tbl t);
      Alcotest.(check bool) "term stable across growth" true
        (Term.equal t (Intern.term_of_id tbl id)))
    first

let suite =
  [
    Alcotest.test_case "maritime gold: compiled = interpreted" `Slow test_maritime_gold;
    Alcotest.test_case "fleet gold: compiled = interpreted" `Quick test_fleet_gold;
    Alcotest.test_case "gold catalogue compiles" `Quick test_gold_compiles;
    Alcotest.test_case "sharded runs: compiled = interpreted" `Slow test_sharded;
    Alcotest.test_case "telemetry counter parity" `Slow test_counter_parity;
    Alcotest.test_case "derivation records identical (fleet)" `Quick
      test_derivation_identical_fleet;
    Alcotest.test_case "derivation records identical (maritime)" `Slow
      test_derivation_identical_maritime;
    Alcotest.test_case "allocation within 1.25x of pinned counts" `Slow
      test_allocation_bounds;
    Alcotest.test_case "recorder allocates under 1.5x" `Quick test_recorder_allocation;
    Alcotest.test_case "compiled miss rate at most 0.0328" `Quick test_compiled_miss_rate;
    Alcotest.test_case "intern round-trip" `Quick test_intern_roundtrip;
    Alcotest.test_case "intern fvp ids" `Quick test_intern_fvp;
    Alcotest.test_case "intern id stability" `Quick test_intern_stability;
    prop_random_streams;
  ]
