(* rtec_cli: run the RTEC engine from the command line.

   - [recognise] loads an event description, background knowledge and an
     event stream from files and prints the recognised maximal intervals;
   - [serve] runs a long-lived recognition session ([Runtime.Server])
     over stdin/stdout or several concurrent TCP connections multiplexed
     into one evaluator, with out-of-order revision and periodic
     emission;
   - [feed] is the matching line-stream TCP client (send a file,
     half-close, print the server's emissions);
   - [check] parses an event description and reports diagnostics;
   - [dataset] writes the synthetic maritime dataset to files usable by
     [recognise].

   Stream file format (see Rtec.Io): one fact per line —
   "happensAt(<event>, <time>)." for events and
   "holdsFor(<fluent> = <value>, [[S, E], ...])." for input fluents. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- telemetry plumbing shared by the subcommands --- *)

let trace_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record a span trace and write it as a Chrome trace_event file \
              (load in chrome://tracing or Perfetto).")

let metrics_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Collect pipeline metrics and write a snapshot \
              (counters, gauges, latency histograms).")

let metrics_format_arg =
  Cmdliner.Arg.(
    value
    & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
    & info [ "metrics-format" ] ~docv:"FORMAT"
        ~doc:"Format of the --metrics snapshot: $(b,json) (indented JSON) or \
              $(b,prom) (Prometheus 0.0.4 text exposition).")

(* Long-running subcommands (serve, feed) route their diagnostics
   through the structured logger; the flag just sets the floor. *)
let log_level_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("debug", Telemetry.Log.Debug);
             ("info", Telemetry.Log.Info);
             ("warn", Telemetry.Log.Warn);
             ("error", Telemetry.Log.Error);
           ])
        Telemetry.Log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Minimum severity for structured stderr log lines: $(b,debug), \
              $(b,info), $(b,warn) or $(b,error).")

(* The enabled sinks are flushed at most once: normally by the explicit
   [telemetry_write] on the success path, otherwise by the [at_exit]
   handler — so a run that dies mid-recognition (exception, [exit 1])
   still leaves a valid trace/metrics file behind. *)
let telemetry_written = ref false

let telemetry_flush ~trace ~metrics ~metrics_format =
  if not !telemetry_written then begin
    telemetry_written := true;
    Option.iter Telemetry.Trace.write_chrome trace;
    Option.iter
      (match metrics_format with
      | `Json -> Telemetry.Metrics.write
      | `Prom -> Telemetry.Metrics.write_prometheus)
      metrics
  end

(* Enable the requested telemetry sinks, failing on unwritable targets
   before any work is done. *)
let telemetry_setup ~trace ~metrics ~metrics_format =
  let probe flag file =
    match open_out file with
    | oc -> close_out oc
    | exception Sys_error msg ->
      Printf.eprintf "cannot write --%s file: %s\n" flag msg;
      exit 2
  in
  Option.iter
    (fun f ->
      probe "trace" f;
      Telemetry.Trace.enable ())
    trace;
  Option.iter
    (fun f ->
      probe "metrics" f;
      Telemetry.Metrics.enable ())
    metrics;
  if Option.is_some trace || Option.is_some metrics then
    at_exit (fun () -> telemetry_flush ~trace ~metrics ~metrics_format)

let telemetry_write = telemetry_flush

(* --- recognition flags shared by [recognise] and [serve] ---

   One reusable Cmdliner term, so the two subcommands cannot drift: the
   same flag names, docs and defaults by construction. [check] shares
   the positional description, [explain] the knowledge/window/step
   flags. *)

let ed_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"EVENT_DESCRIPTION")

let kb_arg =
  Arg.(value & opt (some file) None & info [ "knowledge"; "k" ] ~docv:"FILE"
         ~doc:"Background knowledge facts.")

let window_arg =
  Arg.(value & opt (some int) None & info [ "window"; "w" ] ~docv:"SECONDS"
         ~doc:"Sliding window size; omit for a single query over the whole stream.")

let step_arg =
  Arg.(value & opt (some int) None & info [ "step"; "s" ] ~docv:"SECONDS"
         ~doc:"Query step (defaults to the window size).")

type recognition_flags = {
  knowledge : string option;
  window : int option;
  step : int option;
  jobs : int;
  interpret : bool;
  provenance : string option;
}

let recognition_flags =
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains, at most one per core. recognise also groups \
                 the stream's entity components into N buckets (largest \
                 first, each onto the least-loaded bucket) and evaluates them \
                 in parallel; serve keeps one bucket per component. The \
                 result is bit-identical to --jobs 1.")
  in
  let interpret_arg =
    Arg.(value & flag & info [ "interpret" ]
           ~doc:"Skip rule compilation and run the tree-walking evaluator — the \
                 differential oracle. The result is bit-identical to the default \
                 compiled run.")
  in
  let provenance_arg =
    Arg.(
      value
      & opt ~vopt:(Some "always") (some string) None
      & info [ "provenance" ] ~docv:"MODE"
          ~doc:"Record compact derivation provenance during recognition: \
                $(b,always) (the default when the flag is given bare), \
                $(b,sample:N) (a deterministic 1-in-N window subset) or \
                $(b,sample:N:SEED). Recognition output is unchanged; recorder \
                stats are printed as a comment line.")
  in
  let mk knowledge window step jobs interpret provenance =
    { knowledge; window; step; jobs; interpret; provenance }
  in
  Term.(
    const mk $ kb_arg $ window_arg $ step_arg $ jobs_arg $ interpret_arg $ provenance_arg)

let parse_provenance spec =
  match String.split_on_char ':' spec with
  | [ "always" ] -> Rtec.Derivation.Always
  | [ "sample"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Rtec.Derivation.One_in { n; seed = 0 }
    | _ ->
      Printf.eprintf "invalid --provenance sample count: %s\n" spec;
      exit 2)
  | [ "sample"; n; seed ] -> (
    match (int_of_string_opt n, int_of_string_opt seed) with
    | Some n, Some seed when n > 0 -> Rtec.Derivation.One_in { n; seed }
    | _ ->
      Printf.eprintf "invalid --provenance sample spec: %s\n" spec;
      exit 2)
  | _ ->
    Printf.eprintf "invalid --provenance mode: %s (expected always or sample:N[:SEED])\n"
      spec;
    exit 2

let load_event_description file =
  match Rtec.Parser.parse_clauses_result (read_file file) with
  | Error e ->
    Printf.eprintf "parse error in %s: %s\n" file e;
    exit 1
  | Ok rules -> [ { Rtec.Ast.name = Filename.basename file; rules } ]

let load_knowledge = function
  | None -> Rtec.Knowledge.empty
  | Some f -> Rtec.Knowledge.of_source (read_file f)

(* --- check --- *)

let check_cmd =
  let maritime_voc =
    Arg.(value & flag & info [ "maritime" ] ~doc:"Check against the maritime vocabulary.")
  in
  let run ed_file maritime =
    match Rtec.Parser.parse_clauses_result (read_file ed_file) with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 1
    | Ok rules ->
      let ed = [ { Rtec.Ast.name = Filename.basename ed_file; rules } ] in
      let vocabulary =
        if maritime then Some Maritime.Vocabulary.check_vocabulary else None
      in
      let diags = Rtec.Check.check ?vocabulary ed in
      List.iter (fun d -> Format.printf "%a@." Rtec.Check.pp_diagnostic d) diags;
      if Rtec.Check.usable ?vocabulary ed then Format.printf "ok: usable@."
      else exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse an event description and report diagnostics.")
    Term.(const run $ ed_arg $ maritime_voc)

(* --- recognise --- *)

let recognise_cmd =
  (* One or more stream files: batches arriving separately (per-day
     dumps, per-source feeds) are folded into a single ordered stream
     with [Stream.of_batches] — each fold step is an instrumented
     [Stream.append], so the telemetry snapshot reports how the input
     was assembled (stream.appends, stream.append_events). *)
  let stream_arg = Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"STREAM") in
  let fluent_arg =
    Arg.(value & opt (some string) None & info [ "fluent"; "f" ] ~docv:"NAME/ARITY"
           ~doc:"Only print instances of this fluent, e.g. trawling/1.")
  in
  let run ed_file stream_files (flags : recognition_flags) fluent trace metrics
      metrics_format =
    telemetry_setup ~trace ~metrics ~metrics_format;
    let ed = load_event_description ed_file in
    let knowledge = load_knowledge flags.knowledge in
    let stream =
      Rtec.Stream.of_batches
        (List.map (fun f -> Rtec.Io.stream_of_string (read_file f)) stream_files)
    in
    let config =
      Runtime.config ?window:flags.window ?step:flags.step ~jobs:flags.jobs
        ~compile:(not flags.interpret) ()
    in
    let outcome =
      match flags.provenance with
      | None -> Runtime.run ~config ~event_description:ed ~knowledge ~stream ()
      | Some spec ->
        let sampling = parse_provenance spec in
        Result.map
          (fun (run : Provenance.run) -> (run.Provenance.result, run.Provenance.stats))
          (Provenance.recognise ~config ~sampling ~event_description:ed ~knowledge
             ~stream ())
    in
    match outcome with
    | Error e ->
      Printf.eprintf "recognition failed: %s\n" e;
      exit 1
    | Ok (result, stats) ->
      telemetry_write ~trace ~metrics ~metrics_format;
      let fmt = Format.std_formatter in
      Runtime.Server.pp_summary fmt stats;
      if Option.is_some flags.provenance then Runtime.Server.pp_provenance fmt ();
      let selected =
        match fluent with
        | None -> result
        | Some spec -> (
          match String.split_on_char '/' spec with
          | [ name; arity ] -> Rtec.Engine.find_fluent result (name, int_of_string arity)
          | _ -> failwith "expected NAME/ARITY")
      in
      Runtime.Server.pp_intervals fmt selected;
      Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "recognise"
       ~doc:"Run the engine over one or more stream files (appended in argument \
             order) and print maximal intervals.")
    Term.(
      const run $ ed_arg $ stream_arg $ recognition_flags $ fluent_arg $ trace_arg
      $ metrics_arg $ metrics_format_arg)

(* --- serve --- *)

let serve_cmd =
  let horizon_arg =
    Arg.(value & opt int 0 & info [ "horizon" ] ~docv:"SECONDS"
           ~doc:"Revision horizon: accept an out-of-order event up to this far \
                 behind the last query, rolling the affected entity's state back \
                 and re-evaluating the overlapping windows. Older events are \
                 counted and dropped. Default 0: drop every late event.")
  in
  let ttl_arg =
    Arg.(value & opt (some int) None & info [ "ttl" ] ~docv:"SECONDS"
           ~doc:"Evict an entity's working state once no event has arrived for \
                 it in this long (clamped to at least one window). Its \
                 recognised intervals stay in the emitted result.")
  in
  let listen_arg =
    Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT"
           ~doc:"Accept TCP connections on 127.0.0.1:PORT (as many as \
                 --clients) and serve them instead of stdin/stdout.")
  in
  let clients_arg =
    Arg.(value & opt int 1 & info [ "clients" ] ~docv:"N"
           ~doc:"With --listen: accept this many connections and feed them all \
                 into the one evaluator — each connection gets a reader thread \
                 decoding its lines into a bounded ingest queue, and every \
                 live client receives the emitted intervals. The session ends \
                 once every client has closed its send side.")
  in
  let tick_every_arg =
    Arg.(value & opt (some int) None & info [ "tick-every" ] ~docv:"SECONDS"
           ~doc:"Advance the query grid whenever the event-time watermark has \
                 moved this far since the last tick. Default: tick only on \
                 $(b,tick(T).) control lines and at end of input.")
  in
  let emit_arg =
    Arg.(
      value
      & opt (enum [ ("final", `Final); ("ticks", `Ticks) ]) `Final
      & info [ "emit" ] ~docv:"WHEN"
          ~doc:"When to emit recognised intervals: $(b,final) (once, at end of \
                input — the same output recognise prints) or $(b,ticks) (a full \
                snapshot after every tick, each preceded by a '% tick' comment \
                line).")
  in
  let admin_port_arg =
    Arg.(value & opt (some int) None & info [ "admin-port" ] ~docv:"PORT"
           ~doc:"Serve a live introspection endpoint on 127.0.0.1:PORT (0 picks \
                 an ephemeral port): $(b,/metrics) (Prometheus text exposition), \
                 $(b,/healthz) (liveness and queue saturation), $(b,/statusz) \
                 (session status as JSON) and $(b,/lastz) (flight-recorder \
                 dump). Implies metrics collection.")
  in
  let flight_arg =
    Arg.(value & opt (some string) None & info [ "flight-recorder" ] ~docv:"FILE"
           ~doc:"Dump the in-memory flight recorder (a bounded ring of recent \
                 ingest/tick/revision/eviction/client events) to FILE as JSON \
                 when the session ends, however it ends.")
  in
  let run ed_file (flags : recognition_flags) horizon ttl listen clients tick_every emit
      admin_port flight_file log_level trace metrics metrics_format =
    telemetry_setup ~trace ~metrics ~metrics_format;
    Telemetry.Log.set_level log_level;
    Option.iter Telemetry.Flight.arm flight_file;
    if clients < 1 then begin
      Telemetry.Log.error ~src:"serve" "--clients must be positive";
      exit 2
    end;
    Option.iter
      (fun spec ->
        Rtec.Derivation.enable ();
        Rtec.Derivation.set_sampling (parse_provenance spec))
      flags.provenance;
    let ed = load_event_description ed_file in
    let knowledge = load_knowledge flags.knowledge in
    let svc =
      Runtime.Service.create
        ~config:
          (Runtime.Service.config ?window:flags.window ?step:flags.step ~jobs:flags.jobs
             ~compile:(not flags.interpret) ~horizon ?ttl ())
        ~event_description:ed ~knowledge ()
    in
    let config = { Runtime.Server.tick_every; emit; admin_port } in
    let source =
      match listen with
      | None -> Runtime.Server.Channels [ (stdin, stdout) ]
      | Some port -> Runtime.Server.Listen { port; clients }
    in
    (* Live telemetry: refresh the --metrics snapshot at every tick, so a
       scraper sees current counters while the session runs. *)
    let on_tick () =
      Option.iter
        (match metrics_format with
        | `Json -> Telemetry.Metrics.write
        | `Prom -> Telemetry.Metrics.write_prometheus)
        metrics
    in
    match Runtime.Server.run ~config ~on_tick svc source with
    | Ok () -> telemetry_write ~trace ~metrics ~metrics_format
    | Error (Setup e) ->
      Telemetry.Log.error ~src:"serve" e;
      exit 2
    | Error (Recognition e) ->
      Telemetry.Log.error ~src:"serve" "recognition failed"
        ~fields:[ ("error", Telemetry.Log.Str e) ];
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a long-lived recognition session over a live feed: stream facts \
             arrive as happensAt/holdsFor lines on stdin (or TCP connections \
             with --listen, up to --clients of them multiplexed into the one \
             evaluator), the query grid advances on tick(T). control lines, \
             --tick-every watermark progress, or end of input, and recognised \
             intervals are emitted incrementally (--emit ticks) or once at the \
             end, to every live client. Out-of-order events within --horizon \
             trigger revision of the affected entity's windows; idle entities \
             are evicted after --ttl. A client that disconnects is dropped \
             without disturbing the rest of the session."
       ~man:
         [
           `S Manpage.s_examples;
           `P "rtec dataset -o /tmp/ais && \\";
           `P "  rtec serve /tmp/ais.ed -k /tmp/ais.kb -w 3600 --horizon 600 \\";
           `P "    --emit ticks --tick-every 3600 < /tmp/ais.stream";
         ])
    Term.(
      const run $ ed_arg $ recognition_flags $ horizon_arg $ ttl_arg $ listen_arg
      $ clients_arg $ tick_every_arg $ emit_arg $ admin_port_arg $ flight_arg
      $ log_level_arg $ trace_arg $ metrics_arg $ metrics_format_arg)

(* --- feed --- *)

(* A minimal line-stream TCP client for [serve --listen]: stream a file
   (or stdin) to the server, half-close the connection, and copy
   everything the server says to stdout. Exists so CI can drive
   multi-client serve sessions without relying on netcat. *)
let feed_cmd =
  let port_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"PORT")
  in
  let file_arg =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"STREAM"
           ~doc:"Stream file to send (defaults to stdin).")
  in
  let run port file log_level =
    Telemetry.Log.set_level log_level;
    (* A server that hangs up mid-send must surface as a write error,
       not kill the client. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let conn = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect conn (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with Unix.Unix_error (e, _, _) ->
       Telemetry.Log.error ~src:"feed"
         (Printf.sprintf "cannot connect to 127.0.0.1:%d" port)
         ~fields:[ ("error", Telemetry.Log.Str (Unix.error_message e)) ];
       exit 1);
    Telemetry.Log.debug ~src:"feed"
      (Printf.sprintf "connected to 127.0.0.1:%d" port);
    let ic = Unix.in_channel_of_descr conn in
    let oc = Unix.out_channel_of_descr conn in
    (* The server may emit at any tick while we are still sending;
       draining it concurrently keeps both socket buffers from filling
       up and deadlocking the pair. *)
    let pump =
      Thread.create
        (fun () ->
          try
            while true do
              print_string (input_line ic);
              print_newline ()
            done
          with End_of_file | Sys_error _ -> ())
        ()
    in
    let src = match file with None -> stdin | Some f -> open_in f in
    (try
       (try
          while true do
            output_string oc (input_line src);
            output_char oc '\n'
          done
        with End_of_file -> ());
       flush oc
     with Sys_error _ -> ());
    if src != stdin then close_in_noerr src;
    (* Half-close: the server sees our EOF and can finish the session
       while we keep reading its emissions. *)
    (try Unix.shutdown conn Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    Thread.join pump;
    (try Unix.close conn with Unix.Unix_error _ -> ())
  in
  Cmd.v
    (Cmd.info "feed"
       ~doc:"Connect to a local $(b,serve --listen) session, send a stream file \
             (or stdin) line by line, half-close, and print everything the \
             server emits until it hangs up.")
    Term.(const run $ port_arg $ file_arg $ log_level_arg)

(* --- jsonlint --- *)

(* Validate a JSON document with the in-repo parser. Exists so CI can
   check the admin endpoint's JSON responses (and any other telemetry
   artefact) without depending on an external jq/python. *)
let jsonlint_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSON file to validate ($(b,-) reads stdin).")
  in
  let run file =
    let source =
      if file = "-" then In_channel.input_all stdin else read_file file
    in
    match Telemetry.Json.of_string source with
    | Ok _ -> ()
    | Error e ->
      Printf.eprintf "%s: invalid JSON: %s\n" file e;
      exit 1
  in
  Cmd.v
    (Cmd.info "jsonlint"
       ~doc:"Check that a file parses as JSON; exit 1 with a diagnostic if not.")
    Term.(const run $ file_arg)

(* --- explain --- *)

let explain_cmd =
  let gold_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"GOLD_ED") in
  let gen_arg = Arg.(required & pos 1 (some file) None & info [] ~docv:"GENERATED_ED") in
  let stream_arg = Arg.(required & pos 2 (some file) None & info [] ~docv:"STREAM") in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for each of the two recognition runs.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the attribution report as JSON.")
  in
  let proof_arg =
    Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE"
           ~doc:"Write the generated description's derivation records (proof \
                 trees) as structured JSON.")
  in
  let proof_chrome_arg =
    Arg.(value & opt (some string) None & info [ "proof-chrome" ] ~docv:"FILE"
           ~doc:"Write the generated description's derivation records as a \
                 Chrome trace_event file (one track per activity; load in \
                 chrome://tracing or Perfetto).")
  in
  let sample_arg =
    Arg.(
      value & opt string "full"
      & info [ "sample" ] ~docv:"MODE"
          ~doc:"Provenance recording mode for the two recognition runs: \
                $(b,full) (every window), $(b,divergent) (only windows near \
                diverging spans, located by a recorder-off probe pass) or \
                $(b,sample:N[:SEED]) (a deterministic 1-in-N window subset).")
  in
  let run gold_file gen_file stream_file kb_file window step jobs sample json proof
      proof_chrome trace metrics metrics_format =
    telemetry_setup ~trace ~metrics ~metrics_format;
    let sample =
      match String.split_on_char ':' sample with
      | [ "full" ] -> `Full
      | [ "divergent" ] -> `Divergent
      | [ "sample"; n ] when Option.is_some (int_of_string_opt n) ->
        `One_in (int_of_string n, 0)
      | [ "sample"; n; seed ]
        when Option.is_some (int_of_string_opt n) && Option.is_some (int_of_string_opt seed)
        ->
        `One_in (int_of_string n, int_of_string seed)
      | _ ->
        Printf.eprintf "invalid --sample mode (expected full, divergent or sample:N[:SEED])\n";
        exit 2
    in
    let parse_ed file =
      match Rtec.Parser.parse_clauses_result (read_file file) with
      | Error e ->
        Printf.eprintf "parse error in %s: %s\n" file e;
        exit 1
      | Ok rules ->
        [
          {
            Rtec.Ast.name = Filename.remove_extension (Filename.basename file);
            rules = Rtec.Ast.with_ids ~name:(Filename.remove_extension (Filename.basename file)) rules;
          };
        ]
    in
    let gold = parse_ed gold_file and generated = parse_ed gen_file in
    let knowledge = load_knowledge kb_file in
    let stream = Rtec.Io.stream_of_string (read_file stream_file) in
    let config = Runtime.config ?window ?step ~jobs () in
    (match (proof, proof_chrome) with
    | None, None -> ()
    | _ -> (
      match Provenance.recognise ~config ~event_description:generated ~knowledge ~stream () with
      | Error e ->
        Printf.eprintf "recognition failed: %s\n" e;
        exit 1
      | Ok run ->
        (* Force the lazy proof reconstruction now: the Diff runs below
           reset the recorder buffer these records decode from. *)
        let events = Lazy.force run.Provenance.events in
        Option.iter
          (fun f -> Telemetry.Json.write_file ~indent:true f (Provenance.Export.proof_to_json events))
          proof;
        Option.iter
          (fun f -> Telemetry.Json.write_file f (Provenance.Export.proof_to_chrome events))
          proof_chrome));
    match Provenance.Diff.diff ~config ~sample ~gold ~generated ~knowledge ~stream () with
    | Error e ->
      Printf.eprintf "explain failed: %s\n" e;
      exit 1
    | Ok report ->
      telemetry_write ~trace ~metrics ~metrics_format;
      Option.iter
        (fun f -> Telemetry.Json.write_file ~indent:true f (Provenance.Diff.report_to_json report))
        json;
      Format.printf "%a@?" Provenance.Diff.pp_report report;
      if report.Provenance.Diff.total_fp + report.Provenance.Diff.total_fn > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Recognise a gold and a generated event description over the same \
             stream and attribute every diverging (FP/FN) time-point to the \
             responsible rule and body condition. Exits 3 when the \
             descriptions diverge."
       ~man:
         [
           `S Manpage.s_examples;
           `P "rtec explain gold.ed generated.ed dataset.stream -k dataset.kb \\";
           `P "  --json explain.json --proof-chrome proof.trace";
         ])
    Term.(
      const run $ gold_arg $ gen_arg $ stream_arg $ kb_arg $ window_arg $ step_arg
      $ jobs_arg $ sample_arg $ json_arg $ proof_arg $ proof_chrome_arg $ trace_arg
      $ metrics_arg $ metrics_format_arg)

(* --- dataset --- *)

let dataset_cmd =
  let out_arg =
    Arg.(value & opt string "dataset" & info [ "output"; "o" ] ~docv:"PREFIX"
           ~doc:"Output prefix; writes PREFIX.stream and PREFIX.kb.")
  in
  let seed_arg = Arg.(value & opt int 20250325 & info [ "seed" ] ~docv:"N") in
  let replicas_arg = Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N") in
  let run prefix seed replicas =
    let config = { Maritime.Dataset.seed; replicas; nominal = replicas + 1 } in
    let data = Maritime.Dataset.generate ~config () in
    let oc = open_out (prefix ^ ".stream") in
    Rtec.Io.write_stream oc data.stream;
    close_out oc;
    let oc = open_out (prefix ^ ".kb") in
    Rtec.Io.write_knowledge oc data.knowledge;
    close_out oc;
    let oc = open_out (prefix ^ ".ed") in
    output_string oc (Rtec.Printer.event_description_to_string Maritime.Gold.event_description);
    output_string oc "\n";
    close_out oc;
    Printf.printf "wrote %s.stream (%d events), %s.kb (%d facts), %s.ed\n" prefix
      (Rtec.Stream.size data.stream) prefix
      (Rtec.Knowledge.size data.knowledge)
      prefix
  in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Generate the synthetic maritime dataset as files.")
    Term.(const run $ out_arg $ seed_arg $ replicas_arg)

let () =
  let doc = "Run-Time Event Calculus command-line interface." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rtec" ~doc)
          [
            check_cmd;
            recognise_cmd;
            serve_cmd;
            feed_cmd;
            jsonlint_cmd;
            explain_cmd;
            dataset_cmd;
          ]))
