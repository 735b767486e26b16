let () =
  Alcotest.run "adg"
    [
      ("term", Test_term.suite);
      ("interval", Test_interval.suite);
      ("parser", Test_parser.suite);
      ("hungarian", Test_hungarian.suite);
      ("similarity", Test_similarity.suite);
      ("engine", Test_engine.suite);
      ("check", Test_check.suite);
      ("stream", Test_stream.suite);
      ("codec", Test_codec.suite);
      ("maritime", Test_maritime.suite);
      ("fleet", Test_fleet.suite);
      ("differential", Test_differential.suite);
      ("compiled", Test_compiled.suite);
      ("runtime", Test_runtime.suite);
      ("service", Test_service.suite);
      ("server", Test_server.suite);
      ("adg", Test_adg.suite);
      ("evaluation", Test_evaluation.suite);
      ("telemetry", Test_telemetry.suite);
      ("observability", Test_observability.suite);
      ("derivation", Test_derivation.suite);
      ("provenance", Test_provenance.suite);
      ("report", Test_report.suite);
    ]
