(* Unit tests for the telemetry subsystem: span nesting and ordering,
   histogram percentiles, disabled no-op semantics, JSON round-trips,
   the Chrome trace_event exporter — and the differential gate: stream
   recognition is bit-identical with telemetry on vs. off. *)

open Telemetry

(* Every test leaves the tracer and registry disabled and empty so the
   other suites (which share the process-global state) are unaffected. *)
let scoped f =
  Trace.reset ();
  Trace.enable ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Metrics.disable ();
      Trace.reset ();
      Metrics.reset ())
    f

(* --- spans --- *)

let test_span_nesting () =
  scoped (fun () ->
      let a = Trace.start "a" in
      let b = Trace.start "b" in
      Trace.finish b;
      let c = Trace.start "c" ~args:[ ("k", Trace.Int 7) ] in
      Trace.finish c;
      Trace.finish a;
      let root = Trace.start "root2" in
      Trace.finish root;
      match Trace.infos () with
      | [ ia; ib; ic; iroot ] ->
        Alcotest.(check (list string))
          "start order" [ "a"; "b"; "c"; "root2" ]
          [ ia.Trace.span_name; ib.span_name; ic.span_name; iroot.span_name ];
        Alcotest.(check int) "a is a root" 0 ia.span_parent;
        Alcotest.(check int) "b nested under a" ia.span_id ib.span_parent;
        Alcotest.(check int) "c nested under a (b closed)" ia.span_id ic.span_parent;
        Alcotest.(check int) "root2 is a root (a closed)" 0 iroot.span_parent;
        Alcotest.(check bool) "timestamps are ordered" true
          (ia.t_ns <= ib.t_ns && ib.t_ns <= ic.t_ns && ic.t_ns <= iroot.t_ns);
        Alcotest.(check bool) "parent spans its children" true
          (Int64.add ia.t_ns ia.dur_ns >= Int64.add ic.t_ns ic.dur_ns);
        Alcotest.(check bool) "args are kept" true (ic.span_args = [ ("k", Trace.Int 7) ])
      | infos -> Alcotest.failf "expected 4 spans, got %d" (List.length infos))

let test_with_span_exception () =
  scoped (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
      let after = Trace.start "after" in
      Trace.finish after;
      match Trace.infos () with
      | [ boom; after ] ->
        Alcotest.(check string) "failed span recorded" "boom" boom.Trace.span_name;
        Alcotest.(check int) "stack unwound after exception" 0 after.span_parent
      | infos -> Alcotest.failf "expected 2 spans, got %d" (List.length infos))

let test_disabled_noop () =
  Trace.reset ();
  Trace.disable ();
  Metrics.disable ();
  let sp = Trace.start "ignored" in
  Trace.finish sp;
  Alcotest.(check int) "no span recorded while disabled" 0 (List.length (Trace.infos ()));
  Alcotest.(check int) "with_span still runs the body" 41
    (Trace.with_span "ignored" (fun () -> 41));
  let c = Metrics.counter "test.disabled_counter" in
  Metrics.incr c;
  Metrics.incr c ~by:10;
  Alcotest.(check int) "counter frozen while disabled" 0 (Metrics.value c)

let test_span_cap () =
  scoped (fun () ->
      Trace.set_max_spans 3;
      Fun.protect
        ~finally:(fun () -> Trace.set_max_spans 1_000_000)
        (fun () ->
          for _ = 1 to 5 do
            Trace.finish (Trace.start "s")
          done;
          Alcotest.(check int) "capped at 3" 3 (List.length (Trace.infos ()));
          Alcotest.(check int) "overflow counted" 2 (Trace.dropped_spans ())))

(* --- metrics --- *)

let test_counters_and_gauges () =
  scoped (fun () ->
      let c = Metrics.counter "test.counter" in
      Metrics.incr c;
      Metrics.incr c ~by:41;
      Alcotest.(check int) "counter accumulates" 42 (Metrics.value c);
      Alcotest.(check bool) "same name, same counter" true
        (Metrics.counter "test.counter" == c);
      let g = Metrics.gauge "test.gauge" in
      let snap = Metrics.snapshot () in
      Alcotest.(check (option int)) "snapshot sees the counter" (Some 42)
        (Metrics.find_counter snap "test.counter");
      Alcotest.(check bool) "unset gauge hidden" true
        (not (List.mem_assoc "test.gauge" snap.Metrics.gauges));
      Metrics.set g 2.5;
      let snap = Metrics.snapshot () in
      Alcotest.(check (option (float 1e-9))) "set gauge visible" (Some 2.5)
        (List.assoc_opt "test.gauge" snap.Metrics.gauges);
      Metrics.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (Metrics.value c))

let test_kind_clash () =
  Alcotest.check_raises "counter vs histogram"
    (Invalid_argument "Metrics: test.clash already registered with another type") (fun () ->
      ignore (Metrics.counter "test.clash");
      ignore (Metrics.histogram "test.clash"))

let test_histogram_percentiles () =
  scoped (fun () ->
      let h = Metrics.histogram "test.histogram" in
      for i = 1 to 1000 do
        Metrics.observe h (float_of_int i)
      done;
      let snap = Metrics.snapshot () in
      let s = List.assoc "test.histogram" snap.Metrics.histograms in
      Alcotest.(check int) "count is exact" 1000 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum is exact" 500500. s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "min is exact" 1. s.Metrics.min;
      Alcotest.(check (float 1e-9)) "max is exact" 1000. s.Metrics.max;
      Alcotest.(check (float 1e-9)) "mean is exact" 500.5 s.Metrics.mean;
      (* Buckets are eighth-powers of two: estimates land within one
         bucket (a factor of 2**0.125 ~ 1.09) above the true quantile. *)
      let within q est =
        let truth = q *. 1000. in
        est >= truth && est <= truth *. 1.09
      in
      Alcotest.(check bool) (Printf.sprintf "p50=%.1f within a bucket" s.Metrics.p50) true
        (within 0.50 s.Metrics.p50);
      Alcotest.(check bool) (Printf.sprintf "p90=%.1f within a bucket" s.Metrics.p90) true
        (within 0.90 s.Metrics.p90);
      Alcotest.(check bool) (Printf.sprintf "p99=%.1f within a bucket" s.Metrics.p99) true
        (within 0.99 s.Metrics.p99))

let test_histogram_single_value () =
  scoped (fun () ->
      let h = Metrics.histogram "test.histogram_single" in
      Metrics.observe h 7.;
      let s = List.assoc "test.histogram_single" (Metrics.snapshot ()).Metrics.histograms in
      Alcotest.(check (float 1e-9)) "p50 clamps to the only value" 7. s.Metrics.p50;
      Alcotest.(check (float 1e-9)) "p99 clamps to the only value" 7. s.Metrics.p99)

(* --- JSON --- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.Num 42.);
      ("float", Json.Num 1.5);
      ("text", Json.Str "line\n\"quoted\" \\ end");
      ("list", Json.List [ Json.Num 1.; Json.Str "two"; Json.Obj [] ]);
      ("empty", Json.List []);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent sample_json) with
      | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = sample_json)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ false; true ]

let test_json_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error on %S" input)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{} trailing" ]

let test_chrome_export () =
  scoped (fun () ->
      Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> ()));
      let doc = Trace.to_chrome () in
      (* The document must survive its own serialisation (what the file
         contains) and have the trace_event shape. *)
      let doc =
        match Json.of_string (Json.to_string doc) with
        | Ok d -> d
        | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
      in
      match Option.bind (Json.member "traceEvents" doc) Json.list with
      | Some [ outer; inner ] ->
        List.iter
          (fun (label, ev, name) ->
            Alcotest.(check (option string)) (label ^ " name") (Some name)
              (Option.bind (Json.member "name" ev) Json.str);
            Alcotest.(check (option string)) (label ^ " is a complete event") (Some "X")
              (Option.bind (Json.member "ph" ev) Json.str);
            Alcotest.(check bool) (label ^ " has numeric ts/dur") true
              (Option.is_some (Option.bind (Json.member "ts" ev) Json.num)
              && Option.is_some (Option.bind (Json.member "dur" ev) Json.num)))
          [ ("outer", outer, "outer"); ("inner", inner, "inner") ]
      | _ -> Alcotest.fail "expected exactly two traceEvents")

let test_text_export () =
  scoped (fun () ->
      Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> ()));
      let text = Trace.to_text () in
      let lines = String.split_on_char '\n' text in
      Alcotest.(check bool) "outer on the first line" true
        (match lines with l :: _ -> String.length l > 0 && l.[0] = 'o' | [] -> false);
      Alcotest.(check bool) "inner is indented" true
        (List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "  ") lines))

let test_metrics_json () =
  scoped (fun () ->
      Metrics.incr (Metrics.counter "test.json_counter") ~by:5;
      Metrics.observe (Metrics.histogram "test.json_histogram") 100.;
      let doc =
        match Json.of_string (Json.to_string (Metrics.to_json ())) with
        | Ok d -> d
        | Error e -> Alcotest.failf "snapshot is not valid JSON: %s" e
      in
      let counter =
        Option.bind (Json.member "counters" doc) (Json.member "test.json_counter")
      in
      Alcotest.(check (option (float 1e-9))) "counter serialised" (Some 5.)
        (Option.bind counter Json.num);
      let p50 =
        Option.bind (Json.member "histograms" doc) (fun h ->
            Option.bind (Json.member "test.json_histogram" h) (Json.member "p50"))
      in
      Alcotest.(check bool) "histogram summary serialised" true
        (Option.is_some (Option.bind p50 Json.num)))

(* --- differential: recognition is unaffected by telemetry --- *)

let normalised result =
  List.sort compare
    (List.map
       (fun ((f, v), spans) ->
         ((Rtec.Term.to_string f, Rtec.Term.to_string v), Rtec.Interval.to_list spans))
       result)

(* Batch ingestion is instrumented at the merge point: folding n batches
   through Stream.of_batches performs n-1 appends, each observing the
   incoming batch's event count and the merged size. The counters are
   the only visibility a deployment has into how its working stream was
   assembled, so their arithmetic is pinned here. *)
let test_stream_append_counters () =
  scoped (fun () ->
      let batch times =
        Rtec.Stream.make
          (List.map
             (fun t -> { Rtec.Stream.time = t; term = Rtec.Term.app "e" [ Rtec.Term.Int t ] })
             times)
      in
      let merged =
        Rtec.Stream.of_batches [ batch [ 1; 5 ]; batch [ 2 ]; batch [ 3; 4; 6 ] ]
      in
      Alcotest.(check int) "all events survive the folds" 6 (Rtec.Stream.size merged);
      let snap = Metrics.snapshot () in
      Alcotest.(check (option int))
        "one append per extra batch" (Some 2)
        (Metrics.find_counter snap "stream.appends");
      (match List.assoc_opt "stream.append_events" snap.Metrics.histograms with
       | Some s ->
         Alcotest.(check int) "append_events observations" 2 s.Metrics.count;
         (* Incoming batch sizes: 1 then 3. *)
         Alcotest.(check (float 0.0)) "append_events sum" 4.0 s.Metrics.sum
       | None -> Alcotest.fail "stream.append_events histogram missing");
      (match List.assoc_opt "stream.merged_size" snap.Metrics.histograms with
       | Some s ->
         (* Merged sizes: 2+1=3 then 3+3=6. *)
         Alcotest.(check (float 0.0)) "merged_size sum" 9.0 s.Metrics.sum
       | None -> Alcotest.fail "stream.merged_size histogram missing");
      (* The empty and singleton folds never touch the merge path. *)
      ignore (Rtec.Stream.of_batches []);
      ignore (Rtec.Stream.of_batches [ batch [ 9 ] ]);
      Alcotest.(check (option int))
        "degenerate folds do not append" (Some 2)
        (Metrics.find_counter (Metrics.snapshot ()) "stream.appends"))

let test_recognition_bit_identical () =
  let data =
    Maritime.Dataset.generate ~config:{ Maritime.Dataset.seed = 3; replicas = 1; nominal = 0 } ()
  in
  let recognise () =
    match
      Oracle.Window.run ~window:3600 ~step:1800
        ~event_description:Maritime.Gold.event_description ~knowledge:data.knowledge
        ~stream:data.stream ()
    with
    | Ok (result, _) -> normalised result
    | Error e -> Alcotest.failf "recognition failed: %s" e
  in
  let off = recognise () in
  Alcotest.(check bool) "recognition is non-trivial" true (off <> []);
  let on =
    scoped (fun () ->
        let on = recognise () in
        Alcotest.(check bool) "spans were recorded" true (Trace.infos () <> []);
        Alcotest.(check bool) "queries were counted" true
          (Metrics.find_counter (Metrics.snapshot ()) "window.queries" <> Some 0);
        on)
  in
  Alcotest.(check bool) "bit-identical with telemetry on vs. off" true (off = on);
  let off_again = recognise () in
  Alcotest.(check bool) "bit-identical after disabling again" true (off = off_again)

(* --- float round-trip: every emitted number parses back exactly --- *)

let test_json_float_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"JSON floats round-trip exactly" ~count:1000
       QCheck.float (fun x ->
         match Json.of_string (Json.to_string (Json.Num x)) with
         | Ok (Json.Num y) ->
           (* non-finite inputs may not reach here (they render as null) *)
           Float.is_nan x || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
         | Ok Json.Null -> Float.is_nan x || Float.abs x = Float.infinity
         | Ok _ -> false
         | Error _ -> false))

let test_json_nonfinite () =
  List.iter
    (fun x -> Alcotest.(check string) "non-finite is null" "null" (Json.to_string (Json.Num x)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* --- Prometheus text exposition --- *)

let test_metrics_prometheus () =
  scoped (fun () ->
      Metrics.incr (Metrics.counter "test.prom_counter") ~by:7;
      Metrics.set (Metrics.gauge "test.prom-gauge") 2.5;
      let h = Metrics.histogram "test.prom_histogram" in
      Metrics.observe h 10.;
      Metrics.observe h 20.;
      let text = Metrics.to_prometheus () in
      let has affix =
        let n = String.length affix and m = String.length text in
        let rec go i = i + n <= m && (String.sub text i n = affix || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "counter line" true (has "test_prom_counter 7");
      Alcotest.(check bool) "counter type" true (has "# TYPE test_prom_counter counter");
      Alcotest.(check bool) "gauge name sanitised" true (has "test_prom_gauge 2.5");
      Alcotest.(check bool) "histogram sum" true (has "test_prom_histogram_sum 30");
      Alcotest.(check bool) "histogram count" true (has "test_prom_histogram_count 2");
      Alcotest.(check bool) "histogram type" true
        (has "# TYPE test_prom_histogram histogram");
      (* 10. and 20. land in the buckets bounded by 2^(27/8) and 2^(35/8);
         cumulative counts, then the mandatory +Inf series *)
      Alcotest.(check bool) "first bucket cumulative" true
        (has "test_prom_histogram_bucket{le=\"10.374716437208077\"} 1");
      Alcotest.(check bool) "second bucket cumulative" true
        (has "test_prom_histogram_bucket{le=\"20.749432874416154\"} 2");
      Alcotest.(check bool) "+Inf closes the series" true
        (has "test_prom_histogram_bucket{le=\"+Inf\"} 2");
      Alcotest.(check bool) "no quantile series" false (has "{quantile=");
      (* exposition-format sanity: every non-comment line is "name[{labels}] value" *)
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "malformed line: %s" line
               | Some i -> (
                 match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                 | Some _ -> ()
                 | None -> Alcotest.failf "unparsable value in: %s" line)))

(* Minimal exposition parser shared by the golden and property tests:
   (metric name, le label if any, value) per non-comment line. *)
let parse_prom_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "malformed exposition line: %s" line
         | Some i -> (
           let head = String.sub line 0 i in
           let value =
             match
               float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
             with
             | Some v -> v
             | None -> Alcotest.failf "unparsable value in: %s" line
           in
           match String.index_opt head '{' with
           | None -> (head, None, value)
           | Some j ->
             let name = String.sub head 0 j in
             let label = String.sub head (j + 1) (String.length head - j - 2) in
             let le =
               if String.starts_with ~prefix:"le=\"" label then begin
                 let body = String.sub label 4 (String.length label - 5) in
                 if body = "+Inf" then Float.infinity
                 else
                   match float_of_string_opt body with
                   | Some x -> x
                   | None -> Alcotest.failf "unparsable le bound in: %s" line
               end
               else Alcotest.failf "unexpected label set in: %s" line
             in
             (name, Some le, value)))

(* A histogram's bucket series must be well-formed for any sample set:
   strictly ascending le bounds, non-decreasing cumulative counts, a
   terminal +Inf bucket equal to _count, and _sum matching the samples.
   Checked structurally here (monotonicity golden test) and under random
   sample sets below (the exposition must re-parse). *)
let check_histogram_series ~name ~samples text =
  let lines = parse_prom_lines text in
  let buckets =
    List.filter_map
      (fun (n, le, v) -> if n = name ^ "_bucket" then Some (Option.get le, v) else None)
      lines
  in
  let scalar suffix =
    match
      List.find_opt (fun (n, le, _) -> n = name ^ suffix && le = None) lines
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "missing %s%s" name suffix
  in
  Alcotest.(check bool) (name ^ " has buckets") true (buckets <> []);
  let rec monotone = function
    | (le1, c1) :: ((le2, c2) :: _ as rest) ->
      if not (le1 < le2) then Alcotest.failf "%s le bounds not ascending" name;
      if not (c1 <= c2) then Alcotest.failf "%s cumulative counts decreased" name;
      monotone rest
    | _ -> ()
  in
  monotone buckets;
  let last_le, last_c = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check bool) (name ^ " terminal bucket is +Inf") true (last_le = Float.infinity);
  let count = scalar "_count" in
  Alcotest.(check (float 0.0)) (name ^ " +Inf equals _count") count last_c;
  Alcotest.(check (float 0.0)) (name ^ " _count is the sample count")
    (float_of_int (List.length samples))
    count;
  Alcotest.(check (float 1e-6)) (name ^ " _sum is the sample sum")
    (List.fold_left ( +. ) 0. samples)
    (scalar "_sum")

let test_prometheus_bucket_monotonicity () =
  scoped (fun () ->
      let h = Metrics.histogram "test.prom_mono" in
      let samples = [ 0.4; 1.; 3.; 3.; 17.; 1200.; 250000. ] in
      List.iter (Metrics.observe h) samples;
      check_histogram_series ~name:"test_prom_mono" ~samples (Metrics.to_prometheus ()))

(* Property: whatever lands in the registry, the exposition re-parses
   line by line and each histogram series stays well-formed. Fixed
   metric names (the registry is process-global and keeps
   registrations), fresh values per iteration via reset. *)
let test_prometheus_reparses =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Prometheus exposition re-parses" ~count:100
       QCheck.(
         triple small_nat
           (small_list (pair small_nat small_nat))
           (small_list small_nat))
       (fun (c, gauge_bits, sample_bits) ->
         Metrics.enable ();
         Fun.protect
           ~finally:(fun () ->
             Metrics.disable ();
             Metrics.reset ())
           (fun () ->
             let samples =
               List.map (fun n -> (float_of_int n /. 7.) +. 0.125) sample_bits
             in
             Metrics.incr (Metrics.counter "test.prop_counter") ~by:c;
             List.iter
               (fun (a, b) ->
                 Metrics.set (Metrics.gauge "test.prop_gauge")
                   (float_of_int a -. (float_of_int b /. 3.)))
               gauge_bits;
             let h = Metrics.histogram "test.prop_histogram" in
             List.iter (Metrics.observe h) samples;
             let text = Metrics.to_prometheus () in
             let lines = parse_prom_lines text in
             let counter_ok =
               List.exists
                 (fun (n, le, v) ->
                   n = "test_prop_counter" && le = None && v = float_of_int c)
                 lines
             in
             if samples <> [] then
               check_histogram_series ~name:"test_prop_histogram" ~samples text;
             counter_ok)))

(* --- the CLI flushes telemetry even when recognition dies --- *)

let test_cli_flush_on_failure () =
  let tmp = Filename.temp_file "adg_trace" ".json" in
  let ed = Filename.temp_file "adg_cyclic" ".ed" in
  let stream = Filename.temp_file "adg_stream" ".stream" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ tmp; ed; stream ])
    (fun () ->
      (* mutually recursive holdsFor definitions do not stratify: the run
         fails after telemetry is enabled, exercising the at_exit flush *)
      let oc = open_out ed in
      output_string oc
        "holdsFor(a(X) = true, I) :- holdsFor(b(X) = true, I).\n\
         holdsFor(b(X) = true, I) :- holdsFor(a(X) = true, I).\n";
      close_out oc;
      let oc = open_out stream in
      output_string oc "happensAt(e(v0), 1).\n";
      close_out oc;
      (* the CLI is built next to this test, in ../bin from its directory,
         whatever the working directory is *)
      let cli =
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          (Filename.concat "bin" "rtec_cli.exe")
      in
      let cmd =
        Printf.sprintf "%s recognise %s %s --trace %s 2>/dev/null" (Filename.quote cli)
          (Filename.quote ed) (Filename.quote stream) (Filename.quote tmp)
      in
      let status = Sys.command cmd in
      Alcotest.(check bool) "recognition failed as intended" true (status <> 0);
      let ic = open_in_bin tmp in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string contents with
      | Error e -> Alcotest.failf "flushed trace is not valid JSON: %s" e
      | Ok doc -> (
        match Option.bind (Json.member "traceEvents" doc) Json.list with
        | Some events ->
          Alcotest.(check bool) "trace has events despite the failure" true
            (List.length events > 0)
        | None -> Alcotest.fail "traceEvents missing from flushed trace"))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "with_span closes on exception" `Quick test_with_span_exception;
    Alcotest.test_case "disabled telemetry is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span cap drops and counts" `Quick test_span_cap;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "name registered twice with another type" `Quick test_kind_clash;
    Alcotest.test_case "histogram percentiles within one bucket" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "histogram of a single value" `Quick test_histogram_single_value;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON parse errors" `Quick test_json_errors;
    Alcotest.test_case "Chrome trace_event export" `Quick test_chrome_export;
    Alcotest.test_case "text export indents children" `Quick test_text_export;
    Alcotest.test_case "metrics snapshot JSON" `Quick test_metrics_json;
    Alcotest.test_case "stream append counters" `Quick test_stream_append_counters;
    Alcotest.test_case "recognition bit-identical with telemetry on vs. off" `Quick
      test_recognition_bit_identical;
    test_json_float_roundtrip;
    Alcotest.test_case "non-finite floats render as null" `Quick test_json_nonfinite;
    Alcotest.test_case "Prometheus exposition" `Quick test_metrics_prometheus;
    Alcotest.test_case "Prometheus bucket monotonicity" `Quick
      test_prometheus_bucket_monotonicity;
    test_prometheus_reparses;
    Alcotest.test_case "CLI flushes telemetry on failure" `Quick test_cli_flush_on_failure;
  ]
