(* Maritime situational awareness over a synthetic AIS stream: the
   workload that motivates the paper's introduction. Generates a day of
   vessel traffic around two ports, preprocesses the position signals
   into input events, and runs the hand-crafted event description with a
   one-hour sliding window.

   Run with: dune exec examples/maritime_monitoring.exe *)

let hms seconds =
  Printf.sprintf "%02d:%02d:%02d" (seconds / 3600) (seconds mod 3600 / 60) (seconds mod 60)

let () =
  let dataset = Maritime.Dataset.generate () in
  Format.printf "Synthetic Brest: %d vessels, %d AIS messages -> %d input events@."
    (List.length dataset.vessels)
    (List.length dataset.messages)
    (Rtec.Stream.size dataset.stream);

  (* The gold-standard event description is a hierarchy of 21 activity
     definitions; check it before running. *)
  let ed = Maritime.Gold.event_description in
  assert (Rtec.Check.usable ~vocabulary:Maritime.Vocabulary.check_vocabulary ed);

  match
    Runtime.run
      ~config:(Runtime.config ~window:3600 ~step:1800 ~jobs:2 ())
      ~event_description:ed ~knowledge:dataset.knowledge ~stream:dataset.stream ()
  with
  | Error e -> prerr_endline ("recognition failed: " ^ e)
  | Ok (result, stats) ->
    Format.printf "windowed run: %d queries, %d window-events, %d shard(s) on %d domain(s)@.@."
      stats.queries stats.events_processed stats.buckets stats.jobs;
    Format.printf "Composite maritime activities detected:@.";
    List.iter
      (fun (activity : Evaluation.Detection.activity) ->
        let instances = Evaluation.Detection.instances result activity in
        Format.printf "@.%s (%s): %d instance(s)@." activity.name activity.code
          (List.length instances);
        List.iter
          (fun ((fluent, _), spans) ->
            List.iter
              (fun (s, e) ->
                Format.printf "  %-45s %s - %s@."
                  (Rtec.Term.to_string fluent)
                  (hms s)
                  (if e = Rtec.Interval.infinity then "(open)" else hms e))
              (Rtec.Interval.to_list spans))
          instances)
      Evaluation.Detection.reported;
    (* Activities beyond the figure's eight: the paper's motivating
       examples. *)
    Format.printf "@.Other composite activities:@.";
    List.iter
      (fun (name, indicator) ->
        List.iter
          (fun ((fluent, _), spans) ->
            List.iter
              (fun (s, e) ->
                Format.printf "  %-45s %s - %s@."
                  (Rtec.Term.to_string fluent)
                  (hms s)
                  (if e = Rtec.Interval.infinity then "(open)" else hms e))
              (Rtec.Interval.to_list spans))
          (Rtec.Engine.find_fluent result indicator);
        ignore name)
      [ ("illegalFishing", ("illegalFishing", 1)); ("rendezVous", ("rendezVous", 2)) ]
