(* The fast-path line codec (Io.Codec) against its specification: the
   general lexer/parser pipeline. The differential prepends a quoted-atom
   sentinel to the same source — outside the codec's subset, so the whole
   chunk takes the fallback path — and requires the two decodes to agree
   item for item (the sentinel itself reads back identically on both
   paths). Plus: printed streams round-trip through the codec, and the
   fast/fallback telemetry counters tell the two paths apart. *)

open Rtec

let norm_items items =
  List.map
    (function
      | Stream.Event e -> `E (e.Stream.time, Term.to_string e.term)
      | Stream.Fluent ((f, v), spans) ->
        `F (Term.to_string f, Term.to_string v, Interval.to_list spans))
    items

(* [Io.items_of_string] goes through a fresh codec: in-subset sources
   take the fast path. Prepending the quoted sentinel forces the whole
   chunk through the parser; dropping the sentinel's own item leaves the
   parser's reading of [src]. *)
let sentinel = "happensAt(codec_probe('sentinel'), 0).\n"

let decode_via_codec src = norm_items (Io.items_of_string src)

let decode_via_parser src =
  match norm_items (Io.items_of_string (sentinel ^ src)) with
  | `E (0, "codec_probe(sentinel)") :: rest -> rest
  | _ -> Alcotest.fail "fallback sentinel did not decode first"

(* --- generator for protocol chunks ---

   Mostly inside the codec's subset (unquoted atoms, integers, reals,
   nested compounds, lists, comments, elastic whitespace), with an
   occasional quoted atom so the differential also covers the case where
   the codec itself bails and both sides are the parser. *)

let gen_name =
  QCheck.Gen.oneofl [ "a"; "gap"; "stop_start"; "v12"; "trawling"; "x_y2"; "b7" ]

let gen_scalar =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> string_of_int n) (int_range (-500) 500);
        map2 (fun a b -> Printf.sprintf "%d.%d" a b) (int_range 0 99) (int_range 0 99);
        gen_name;
        return "'quoted atom'";
      ])

let rec gen_term_src depth =
  QCheck.Gen.(
    if depth = 0 then gen_scalar
    else
      frequency
        [
          (4, gen_scalar);
          ( 2,
            map2
              (fun name args -> name ^ "(" ^ String.concat ", " args ^ ")")
              gen_name
              (list_size (int_range 1 3) (gen_term_src (depth - 1))) );
          ( 1,
            map
              (fun elems -> "[" ^ String.concat ", " elems ^ "]")
              (list_size (int_range 0 3) (gen_term_src (depth - 1))) );
        ])

let gen_spans =
  QCheck.Gen.(
    let* raw = list_size (int_range 1 3) (pair (int_range 0 1000) (int_range 1 100)) in
    let _, spans =
      List.fold_left
        (fun (t, acc) (gap, len) ->
          let s = t + gap + 1 in
          (s + len, (s, s + len) :: acc))
        (0, []) raw
    in
    let spans = List.rev spans in
    map
      (fun open_ended ->
        let body =
          List.mapi
            (fun i (s, e) ->
              if open_ended && i = List.length spans - 1 then
                Printf.sprintf "[%d, inf]" s
              else Printf.sprintf "[%d, %d]" s e)
            spans
        in
        "[" ^ String.concat ", " body ^ "]")
      bool)

let gen_pad = QCheck.Gen.oneofl [ ""; " "; "  "; "\t" ]

let gen_line =
  QCheck.Gen.(
    oneof
      [
        (* happensAt(Term, T). *)
        map2
          (fun (term, t) (p1, p2) ->
            Printf.sprintf "happensAt(%s%s,%s%d)." p1 term p2 t)
          (pair (gen_term_src 2) (int_range 0 10_000))
          (pair gen_pad gen_pad);
        (* holdsFor(F = V, Spans). *)
        map2
          (fun ((f, v), spans) pad ->
            Printf.sprintf "holdsFor(%s%s= %s, %s)." f pad v spans)
          (pair (pair (gen_term_src 2) (gen_term_src 1)) gen_spans)
          gen_pad;
        (* comment / blank noise between facts *)
        return "% a comment line";
        return "";
      ])

let gen_chunk =
  QCheck.Gen.(
    map (fun lines -> String.concat "\n" lines) (list_size (int_range 1 12) gen_line))

let arbitrary_chunk = QCheck.make ~print:(fun s -> s) gen_chunk

let qtest ?(count = 300) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let prop_codec_matches_parser chunk =
  decode_via_codec chunk = decode_via_parser chunk

(* Printer round-trip: a stream printed by [Io.stream_to_string] decodes
   back — through the codec, since the printed form is inside its subset
   — to the same events and input fluents. Chunks with quoted atoms are
   skipped: the printer writes atoms bare, so an atom with a space in it
   does not survive printing (a pre-existing printer limitation, not a
   codec one). *)
let prop_printed_stream_round_trips chunk =
  if String.contains chunk '\'' then true
  else
    match Io.items_of_string chunk with
    | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ()
    | items ->
      let s = Stream.of_items items in
      let s' = Io.stream_of_string (Io.stream_to_string s) in
      let norm_stream s =
        ( List.map
            (fun (e : Stream.event) -> (e.time, Term.to_string e.term))
            (Stream.events s),
          List.sort compare
            (List.map
               (fun ((f, v), spans) ->
                 (Term.to_string f, Term.to_string v, Interval.to_list spans))
               (Stream.input_fluents s)) )
      in
      norm_stream s = norm_stream s'

(* --- fixed cases the generator cannot be trusted to hit --- *)

let read name =
  Option.value ~default:0
    (Telemetry.Metrics.find_counter (Telemetry.Metrics.snapshot ()) name)

let test_fast_and_fallback_counters () =
  Telemetry.Metrics.enable ();
  Fun.protect ~finally:Telemetry.Metrics.disable (fun () ->
      let fast0 = read "io.codec.fast" and fb0 = read "io.codec.fallback" in
      ignore (Io.items_of_string "happensAt(gap(v1), 5).\nhappensAt(gap(v2), 6).\n");
      Alcotest.(check int) "two facts decoded fast" (fast0 + 2) (read "io.codec.fast");
      Alcotest.(check int) "no fallback" fb0 (read "io.codec.fallback");
      ignore (Io.items_of_string "happensAt(gap('v 1'), 5).\n");
      Alcotest.(check int) "quoted atom fell back" (fb0 + 1) (read "io.codec.fallback"))

(* Everything the maritime generator prints stays on the fast path: one
   codec decodes the whole default dataset stream (8,793 items) without a
   single chunk falling back to the general parser. *)
let test_dataset_stream_stays_fast () =
  let d = Maritime.Dataset.generate () in
  let src = Io.stream_to_string d.Maritime.Dataset.stream in
  Telemetry.Metrics.enable ();
  Fun.protect ~finally:Telemetry.Metrics.disable (fun () ->
      let fast0 = read "io.codec.fast" and fb0 = read "io.codec.fallback" in
      let items = Io.Codec.items_of_string (Io.Codec.create ()) src in
      Alcotest.(check int) "no chunk fell back" fb0 (read "io.codec.fallback");
      Alcotest.(check int) "every item decoded fast" (fast0 + List.length items)
        (read "io.codec.fast"))

let test_codec_subset_edges () =
  List.iter
    (fun src -> Alcotest.(check bool) src true (prop_codec_matches_parser src))
    [
      (* empty-argument list, nested lists, negative and real numbers *)
      "happensAt(f([], [1, [2, 3]]), 7).";
      "happensAt(speed(v1, -3), 0).";
      "happensAt(speed(v1, 12.5), 0).";
      "holdsFor(proximity(v1, v2) = true, [[10, 20], [30, inf]]).";
      (* 19-digit integer: beyond the codec's digit budget, fallback *)
      "happensAt(f(1234567890123456789), 1).";
      (* block comment: fallback territory *)
      "/* block */ happensAt(gap(v1), 5).";
      (* whitespace-heavy but in-subset *)
      "  happensAt( gap( v1 ) ,  5 ) .";
    ]

let test_bad_lines_error_like_parser () =
  (* Lines the parser rejects must keep erroring through the codec entry
     points — the fallback forwards the parser's exception unchanged. *)
  List.iter
    (fun src ->
      Alcotest.(check bool) src true
        (match Io.items_of_string src with
        | _ -> false
        | exception (Invalid_argument _ | Failure _ | Parser.Error _ | Lexer.Error _) ->
          true))
    [
      "holdsWithin(gap(v1), 5).";
      (* not a protocol fact *)
      "happensAt(gap(v1), 5)";
      (* missing dot *)
      "happensAt(gap(v1), ).";
    ]

let suite =
  [
    qtest "codec == parser on generated chunks" arbitrary_chunk prop_codec_matches_parser;
    qtest ~count:150 "printed stream round-trips through the codec" arbitrary_chunk
      prop_printed_stream_round_trips;
    Alcotest.test_case "fast/fallback counters split the two paths" `Quick
      test_fast_and_fallback_counters;
    Alcotest.test_case "maritime dataset stream stays on the fast path" `Quick
      test_dataset_stream_stays_fast;
    Alcotest.test_case "subset edge cases match the parser" `Quick test_codec_subset_edges;
    Alcotest.test_case "malformed lines error like the parser" `Quick
      test_bad_lines_error_like_parser;
  ]
