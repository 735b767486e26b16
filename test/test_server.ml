(* The serve pipeline in-process: [Runtime.Server] over pipe pairs, the
   same reader → ring → evaluator path [rtec_cli serve] runs on stdin or
   TCP. Two connections merge into the batch answer; a consumer that
   stops reading saturates the ring without losing a tick; a connection
   whose output is closed is dropped while the other still gets
   everything; bad lines leave only a warning, a flight record and a
   count; the flight recorder holds a whole session; the admin routes
   answer mid-session; an exception raised while evaluating fails the
   session and releases its ports; where the reads of a connection
   happen to end changes no output byte. Every wait polls with a
   deadline. *)

open Rtec
module Server = Runtime.Server
module Service = Runtime.Service

let deadline_s = 30.

let poll what ready =
  let limit = Unix.gettimeofday () +. deadline_s in
  while not (ready ()) do
    if Unix.gettimeofday () > limit then Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.001
  done

(* Run [f] on its own thread; [await] polls for its outcome and re-raises
   what it raised. *)
let spawn f =
  let cell = ref None in
  ignore (Thread.create (fun () -> cell := Some (try Ok (f ()) with e -> Error e)) ());
  cell

let await what cell =
  poll what (fun () -> Option.is_some !cell);
  match !cell with Some (Ok x) -> x | Some (Error e) -> raise e | None -> assert false

(* One connection: the server reads [server_in] and writes [server_out];
   the test writes the other end of the first pipe and reads the other
   end of the second. *)
type conn = {
  send : out_channel;
  recv : in_channel;
  server_in : in_channel;
  server_out : out_channel;
}

let conn () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  {
    send = Unix.out_channel_of_descr in_w;
    recv = Unix.in_channel_of_descr out_r;
    server_in = Unix.in_channel_of_descr in_r;
    server_out = Unix.out_channel_of_descr out_w;
  }

(* Start a session on its own thread. The server leaves caller-owned
   channels open, so the thread closes the server's ends once [run]
   returns: that is the EOF the test's readers wait for. *)
let serve ~config svc conns =
  spawn (fun () ->
      let chans = List.map (fun c -> (c.server_in, c.server_out)) conns in
      let outcome = Server.run ~config svc (Server.Channels chans) in
      List.iter
        (fun c ->
          close_out_noerr c.server_out;
          close_in_noerr c.server_in)
        conns;
      outcome)

let finish cell =
  match await "the session to end" cell with
  | Ok () -> ()
  | Error (Server.Setup e | Server.Recognition e) -> Alcotest.failf "session failed: %s" e

let send c text =
  spawn (fun () ->
      output_string c.send text;
      close_out c.send)

let collect c =
  spawn (fun () ->
      Fun.protect ~finally:(fun () -> close_in c.recv) (fun () -> In_channel.input_all c.recv))

let non_comment output =
  String.concat ""
    (List.filter_map
       (fun l -> if l = "" || l.[0] = '%' then None else Some (l ^ "\n"))
       (String.split_on_char '\n' output))

let contains s needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

let counter name =
  Option.value ~default:0
    (Telemetry.Metrics.find_counter (Telemetry.Metrics.snapshot ()) name)

let with_metrics f =
  Telemetry.Metrics.enable ();
  Fun.protect ~finally:Telemetry.Metrics.disable f

(* --- the maritime scenario --- *)

let data =
  lazy
    (Maritime.Dataset.generate ~config:{ Maritime.Dataset.seed = 99; replicas = 1; nominal = 2 } ())

let stream_lines () =
  let text = Io.stream_to_string (Lazy.force data).stream in
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

let lines_text lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let maritime_service ?(horizon = 0) () =
  Service.create
    ~config:(Service.config ~window:3600 ~step:1800 ~horizon ())
    ~event_description:Maritime.Gold.event_description ~knowledge:(Lazy.force data).knowledge ()

let batch_text () =
  let d = Lazy.force data in
  match
    Runtime.run
      ~config:(Runtime.config ~window:3600 ~step:1800 ())
      ~event_description:Maritime.Gold.event_description ~knowledge:d.knowledge ~stream:d.stream ()
  with
  | Ok (result, _) -> Format.asprintf "%a" Server.pp_intervals result
  | Error e -> Alcotest.failf "batch recognition failed: %s" e

(* Each connection sends half the stream. Without auto-ticks nothing is
   evaluated before the final drain, so however the halves interleave,
   both connections receive exactly the batch answer. *)
let test_two_connections () =
  let lines = stream_lines () in
  let half = List.length lines / 2 in
  let first = List.filteri (fun i _ -> i < half) lines
  and second = List.filteri (fun i _ -> i >= half) lines in
  let a = conn () and b = conn () in
  let session = serve ~config:Server.default (maritime_service ()) [ a; b ] in
  let out_a = collect a and out_b = collect b in
  ignore (send a (lines_text first));
  ignore (send b (lines_text second));
  finish session;
  let expected = batch_text () in
  Alcotest.(check bool) "batch recognises something" true (expected <> "");
  Alcotest.(check string) "first connection gets the batch answer" expected
    (non_comment (await "output 1" out_a));
  Alcotest.(check string) "second connection gets the batch answer" expected
    (non_comment (await "output 2" out_b))

(* --- the admin plane --- *)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let get port path =
  let r = Test_observability.http_request port ~meth:"GET" ~path in
  (Test_observability.status_of r, Test_observability.body_of r)

let json what body =
  match Telemetry.Json.of_string body with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s is not JSON (%s): %s" what e body

(* /statusz as JSON; [None] until the session has started its endpoint. *)
let statusz port =
  match get port "/statusz" with
  | _, body -> Some (json "/statusz" body)
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> None

let client_state port slot =
  let ( let* ) = Option.bind in
  let* doc = statusz port in
  let* clients = Option.bind (Telemetry.Json.member "clients" doc) Telemetry.Json.list in
  Option.bind (Telemetry.Json.member "state" (List.nth clients slot)) Telemetry.Json.str

(* /healthz's [queue_saturated]; [None] until the endpoint answers. *)
let queue_saturated port =
  match get port "/healthz" with
  | _, body -> (
    match Telemetry.Json.member "queue_saturated" (json "/healthz" body) with
    | Some (Telemetry.Json.Bool b) -> Some b
    | _ -> None)
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> None

let ingest_queue port key =
  let ( let* ) = Option.bind in
  let* doc = statusz port in
  let* q = Telemetry.Json.member "ingest_queue" doc in
  Option.bind (Telemetry.Json.member key q) Telemetry.Json.num

let watermark port =
  Option.bind (Option.bind (statusz port) (Telemetry.Json.member "watermark")) Telemetry.Json.num

(* --- a consumer that stops reading --- *)

let small_ed =
  [
    Parser.parse_definition ~name:"svc"
      "initiatedAt(active(V) = true, T) :- happensAt(start(V), T).\n\
       terminatedAt(active(V) = true, T) :- happensAt(stop(V), T).";
  ]

let small_service () =
  Service.create
    ~config:(Service.config ~window:10 ~step:10 ())
    ~event_description:small_ed ~knowledge:Knowledge.empty ()

(* 1,500 [% tick] headers alone overfill a 64 KiB pipe, so the evaluator
   blocks on its write while the reader keeps decoding: a burst must
   wait for room, and /healthz must call the ring saturated while it
   does, though a waiting burst can leave the ring less than full. The
   connection stays open until every line is ingested, so /statusz can
   tell how deep the ring got; once the test reads, every tick must
   still come out. *)
let test_slow_consumer () =
  with_metrics (fun () ->
      let blocked0 = counter "service.ingest.blocked" in
      let input =
        String.concat ""
          (List.init 1500 (fun i -> Printf.sprintf "tick(%d).\n" (i + 1))
          @ List.init 2000 (fun i ->
                Printf.sprintf "happensAt(%s(v1), %d).\n"
                  (if i land 1 = 0 then "start" else "stop")
                  (1501 + i)))
      in
      let port = free_port () in
      let c = conn () in
      let session =
        serve
          ~config:{ Server.default with emit = `Ticks; admin_port = Some port }
          (small_service ()) [ c ]
      in
      let sent =
        spawn (fun () ->
            output_string c.send input;
            flush c.send)
      in
      poll "the ingest ring to block a reader" (fun () ->
          counter "service.ingest.blocked" > blocked0);
      poll "/healthz to report the ring saturated" (fun () -> queue_saturated port = Some true);
      let out = collect c in
      await "the input to be written" sent;
      poll "every line to be ingested" (fun () -> watermark port = Some 3500.);
      (match ingest_queue port "depth_hwm" with
      | Some hwm ->
        Alcotest.(check bool)
          (Printf.sprintf "/statusz depth_hwm %.0f within the ring's 1,024 lines" hwm)
          true (hwm <= 1024.)
      | None -> Alcotest.fail "/statusz has no ingest_queue.depth_hwm");
      close_out c.send;
      finish session;
      let ticks =
        List.filter
          (fun l -> String.length l > 7 && String.sub l 0 7 = "% tick ")
          (String.split_on_char '\n' (await "output" out))
      in
      Alcotest.(check int) "every tick emitted" 1500 (List.length ticks))

(* --- a dropped connection --- *)

(* The second connection's output is closed before anything is written
   to it. The first emission — a tick snapshot — fails on it: that
   connection is dropped, counted once and reported as [dropped_write]
   while the session is still live; the first connection then streams
   the whole stream and still receives the full answer. *)
let test_dropped_connection () =
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe) @@ fun () ->
  with_metrics (fun () ->
      let dropped0 = counter "service.clients.dropped" in
      let port = free_port () in
      let a = conn () and b = conn () in
      close_in b.recv;
      let session =
        serve
          ~config:{ Server.default with emit = `Ticks; admin_port = Some port }
          (maritime_service ()) [ a; b ]
      in
      let out_a = collect a in
      output_string a.send "tick(0).\n";
      flush a.send;
      poll "the closed connection to read dropped_write" (fun () ->
          client_state port 1 = Some "dropped_write");
      ignore (send a (lines_text (stream_lines ())));
      close_out b.send;
      finish session;
      Alcotest.(check int) "one client dropped" 1 (counter "service.clients.dropped" - dropped0);
      Alcotest.(check string) "the live connection gets the batch answer" (batch_text ())
        (non_comment (await "output" out_a)))

(* All four routes answer while a session waits on its connection. *)
let test_admin_routes () =
  let port = free_port () in
  let c = conn () in
  let session =
    serve ~config:{ Server.default with admin_port = Some port } (small_service ()) [ c ]
  in
  let out = collect c in
  output_string c.send "happensAt(start(v1), 3).\n";
  flush c.send;
  poll "the line to be ingested" (fun () -> watermark port = Some 3.);
  let status, body = get port "/metrics" in
  Alcotest.(check int) "/metrics answers" 200 status;
  Alcotest.(check bool) "/metrics exposes the ring gauge" true
    (contains body "service_ingest_queue_depth_hwm");
  let status, body = get port "/healthz" in
  Alcotest.(check int) "/healthz answers" 200 status;
  Alcotest.(check (option string)) "/healthz is ok" (Some "ok")
    (Option.bind (Telemetry.Json.member "status" (json "/healthz" body)) Telemetry.Json.str);
  let status, body = get port "/statusz" in
  Alcotest.(check int) "/statusz answers" 200 status;
  Alcotest.(check (option (float 0.))) "/statusz reports the ring capacity" (Some 1024.)
    (Option.bind
       (Telemetry.Json.member "ingest_queue" (json "/statusz" body))
       (fun q -> Option.bind (Telemetry.Json.member "capacity" q) Telemetry.Json.num));
  Alcotest.(check (option string)) "/statusz reports the live connection" (Some "streaming")
    (client_state port 0);
  let status, body = get port "/lastz" in
  Alcotest.(check int) "/lastz answers" 200 status;
  Alcotest.(check (option string)) "/lastz is a flight dump" (Some "adg-flight/1")
    (Option.bind (Telemetry.Json.member "schema" (json "/lastz" body)) Telemetry.Json.str);
  close_out c.send;
  finish session;
  ignore (await "output" out)

(* --- an exception inside evaluation --- *)

(* [on_tick] raises after the first tick. The session must fail as a
   recognition error, not by raising, and must have released the admin
   port: binding it again succeeds. *)
let test_exception_releases_ports () =
  let port = free_port () in
  let c = conn () in
  let session =
    spawn (fun () ->
        Server.run
          ~config:{ Server.default with admin_port = Some port }
          ~on_tick:(fun () -> failwith "on_tick gave up")
          (small_service ())
          (Server.Channels [ (c.server_in, c.server_out) ]))
  in
  output_string c.send "tick(0).\n";
  flush c.send;
  (match await "the session to fail" session with
  | Error (Server.Recognition msg) ->
    Alcotest.(check bool) "the error names the exception" true (contains msg "on_tick gave up")
  | Error (Server.Setup e) -> Alcotest.failf "unexpected setup error: %s" e
  | Ok () -> Alcotest.fail "the session succeeded although on_tick raised");
  (* The reader still waits on its connection: end it before closing
     the server's ends. *)
  close_out c.send;
  close_in_noerr c.server_in;
  close_out_noerr c.server_out;
  close_in_noerr c.recv;
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "the admin port is still bound: %s" (Unix.error_message e))

(* --- bad lines --- *)

let with_log_file f =
  let tmp = Filename.temp_file "adg_server_log" ".txt" in
  let oc = open_out tmp in
  Telemetry.Log.set_human (Some oc);
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Log.set_human (Some stderr);
      close_out_noerr oc;
      Sys.remove tmp)
    (fun () ->
      let x = f () in
      flush oc;
      (x, In_channel.with_open_bin tmp In_channel.input_all))

let bad_line_records () =
  List.length
    (List.filter
       (fun (e : Telemetry.Flight.event) -> e.kind = Telemetry.Flight.Bad_line)
       (Telemetry.Flight.events ()))

let ticking = { Server.default with tick_every = Some 1800 }

let statusz_bad_lines port =
  Option.bind
    (Option.bind (statusz port) (Telemetry.Json.member "bad_lines"))
    Telemetry.Json.num

(* With [admin], the connection stays open until [/statusz] counts
   [bad] bad lines. *)
let session_output ?admin ?(bad = 0) lines =
  let c = conn () in
  let session =
    serve ~config:{ ticking with admin_port = admin } (maritime_service ~horizon:1800 ()) [ c ]
  in
  let out = collect c in
  (match admin with
  | None -> ignore (send c (lines_text lines))
  | Some port ->
    output_string c.send (lines_text lines);
    flush c.send;
    poll "/statusz to count the bad lines" (fun () ->
        match statusz_bad_lines port with Some n -> n >= float bad | None -> false);
    Alcotest.(check (option (float 0.))) "/statusz counts each bad line" (Some (float bad))
      (statusz_bad_lines port);
    close_out c.send);
  finish session;
  await "output" out

(* An unparsable line, a line holding a non-ground fact followed by a
   copy of the first line, and a tick line with an event after it are
   each ignored whole: the output — summary lines included — is
   byte-identical to the clean session's, and each leaves one warning,
   one [bad_line] flight record and one count in [service.bad_lines] and
   in [/statusz]. *)
let test_bad_lines () =
  let lines = stream_lines () in
  let first = List.hd lines in
  let bad =
    [
      "this is not a fact";
      "happensAt(gap_start(X), 0). " ^ first;
      "tick(5). happensAt(stop_end(v1), 20).";
    ]
  in
  let n = List.length bad in
  let clean = session_output lines in
  Telemetry.Flight.set_capacity (1 lsl 16);
  Fun.protect ~finally:(fun () -> Telemetry.Flight.set_capacity 4096) @@ fun () ->
  with_metrics @@ fun () ->
  let counted0 = counter "service.bad_lines" in
  let output, log =
    with_log_file (fun () ->
        session_output ~admin:(free_port ()) ~bad:n ((first :: bad) @ List.tl lines))
  in
  Alcotest.(check string) "bad lines change no output byte" clean output;
  Alcotest.(check int) "one bad_line record per bad line" n (bad_line_records ());
  Alcotest.(check int) "service.bad_lines counts each bad line" n
    (counter "service.bad_lines" - counted0);
  let warnings =
    List.filter
      (fun l -> contains l "WARN serve: ignoring bad input line")
      (String.split_on_char '\n' log)
  in
  Alcotest.(check int) "one warning per bad line" n (List.length warnings)

(* --- the flight recorder --- *)

(* 5,000 event lines with a [tick(T).] after every 100. The evaluator
   writes one [ingest] record per batch it takes, cut at each tick, not
   one per line, so the default 4,096-record ring holds the whole
   session: every tick record, the drain's included, and before the
   k-th tick exactly the 100 k items sent before its line. *)
let test_flight_holds_session () =
  Telemetry.Flight.set_capacity 4096;
  let blocks = 50 and per_block = 100 in
  let lines =
    List.concat
      (List.init blocks (fun k ->
           List.init per_block (fun i ->
               Printf.sprintf "happensAt(%s(v%d), %d)."
                 (if i land 1 = 0 then "start" else "stop")
                 (i mod 7)
                 ((k * per_block) + i + 1))
           @ [ Printf.sprintf "tick(%d)." ((k + 1) * per_block) ]))
  in
  let c = conn () in
  let session = serve ~config:Server.default (small_service ()) [ c ] in
  let out = collect c in
  ignore (send c (lines_text lines));
  finish session;
  ignore (await "output" out);
  let events = Telemetry.Flight.events () in
  Alcotest.(check int) "no record overwritten" (Telemetry.Flight.total ()) (List.length events);
  let ticks, ingests, items =
    List.fold_left
      (fun (ticks, ingests, items) (e : Telemetry.Flight.event) ->
        match e.kind with
        | Telemetry.Flight.Tick ->
          if ticks < blocks && items <> (ticks + 1) * per_block then
            Alcotest.failf "%d items recorded before tick %d" items (ticks + 1);
          (ticks + 1, ingests, items)
        | Telemetry.Flight.Ingest -> (ticks, ingests + 1, items + e.a)
        | _ -> (ticks, ingests, items))
      (0, 0, 0) events
  in
  Alcotest.(check int) "a tick record per tick line, and the drain's" (blocks + 1) ticks;
  Alcotest.(check int) "ingest records count every item" (blocks * per_block) items;
  if ingests * 10 > blocks * per_block then
    Alcotest.failf "%d ingest records for %d lines" ingests (blocks * per_block)

(* --- chunk boundaries --- *)

(* The session's whole output for [pieces], each written and flushed on
   its own, the next after a yield, so the reader's reads end wherever
   the pieces do, or wherever the pipe had filled up to. *)
let served ~config pieces =
  let c = conn () in
  let session = serve ~config (small_service ()) [ c ] in
  let out = collect c in
  let sent =
    spawn (fun () ->
        List.iter
          (fun p ->
            output_string c.send p;
            flush c.send;
            Thread.yield ())
          pieces;
        close_out c.send)
  in
  finish session;
  await "the pieces to be written" sent;
  await "output" out

(* One line of the protocol text: an event (of vessel [v], at its line's
   index plus a jitter that can make it late), a tick, a blank line or a
   comment, maybe padded, each ended by LF or CRLF. *)
type line = Event of bool * int * int | Tick of int | Blank of string | Comment

let render i = function
  | Event (start, v, jitter) ->
    Printf.sprintf "happensAt(%s(v%d), %d)." (if start then "start" else "stop") v (i + jitter)
  | Tick jitter -> Printf.sprintf "tick(%d)." (i + jitter)
  | Blank pad -> pad
  | Comment -> "% a comment"

let gen_line =
  QCheck2.Gen.(
    frequency
      [
        (20, map3 (fun start v j -> Event (start, v, j)) bool (int_range 1 4) (int_range (-30) 5));
        (2, map (fun j -> Tick j) (int_range (-5) 5));
        (1, map (fun pad -> Blank pad) (oneofl [ ""; " "; "\t"; " \r" ]));
        (1, pure Comment);
      ])

type case = { lines : (line * bool * bool) list; head : int; sizes : int list }

(* The text: every line, LF- or CRLF-ended and maybe padded with a
   space, then one more event with no newline at all. *)
let text_of case =
  let b = Buffer.create 65536 in
  List.iteri
    (fun i (l, crlf, padded) ->
      if padded then Buffer.add_char b ' ';
      Buffer.add_string b (render i l);
      Buffer.add_string b (if crlf then "\r\n" else "\n"))
    case.lines;
  Buffer.add_string b (render (List.length case.lines) (Event (false, 1, 0)));
  Buffer.contents b

(* [text] cut at [sizes] (cycled), except for one piece that starts at
   byte [head] and runs one byte past its 1,536th newline: more lines
   than the ring holds, in one write, ending mid-line. *)
let pieces case text =
  let len = String.length text and sizes = Array.of_list case.sizes in
  let rec past_newlines from k =
    match String.index_from_opt text from '\n' with
    | Some i when k > 1 -> past_newlines (i + 1) (k - 1)
    | Some i -> min len (i + 2)
    | None -> len
  in
  let head = min case.head len in
  let big = past_newlines head 1536 in
  let rec chop pos stop k acc =
    if pos >= stop then acc
    else
      let n = min sizes.(k mod Array.length sizes) (stop - pos) in
      chop (pos + n) stop (k + 1) (String.sub text pos n :: acc)
  in
  List.rev (chop big len 0 (String.sub text head (big - head) :: chop 0 head 0 []))

let gen_case =
  QCheck2.Gen.(
    map3
      (fun lines head sizes -> { lines; head; sizes })
      (* the lines shrink only in number: each shrink step serves two
         sessions *)
      (list_size (int_range 1600 1800)
         (no_shrink (triple gen_line bool (frequency [ (9, pure false); (1, pure true) ]))))
      (int_range 0 4000)
      (list_size (int_range 1 8)
         (frequency [ (6, int_range 1 64); (3, int_range 65 1500); (1, int_range 1501 9000) ])))

let print_case case =
  Printf.sprintf "%d lines, big piece from byte %d, sizes [%s]:\n%s" (List.length case.lines)
    case.head
    (String.concat "; " (List.map string_of_int case.sizes))
    (text_of case)

let ticking_small = { Server.default with emit = `Ticks; tick_every = Some 50 }

(* However the text is cut, the session answers as it does to one write
   of it: every tick snapshot and the final summary, byte for byte. *)
let prop_chunk_boundaries =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 19 |])
    (QCheck2.Test.make ~name:"chunk boundaries change no output byte" ~count:12
       ~print:print_case gen_case (fun case ->
         let text = text_of case in
         String.equal (served ~config:ticking_small [ text ])
           (served ~config:ticking_small (pieces case text))))

(* A last line with no newline is read at EOF, as [input_line] reads
   it: its event closes the interval. *)
let test_unterminated_last_line () =
  let text = "happensAt(start(v1), 3).\nhappensAt(stop(v1), 7)." in
  let output = served ~config:Server.default [ text ] in
  Alcotest.(check string) "same answer as the terminated text"
    (served ~config:Server.default [ text ^ "\n" ])
    output;
  Alcotest.(check string) "the last line's event closes the interval"
    "holdsFor(active(v1) = true, [(4,8)]).\n" (non_comment output)

let suite =
  [
    Alcotest.test_case "two connections receive the batch answer" `Quick test_two_connections;
    Alcotest.test_case "a slow consumer saturates the ring, loses no tick" `Quick
      test_slow_consumer;
    Alcotest.test_case "a closed connection is dropped, the other served" `Quick
      test_dropped_connection;
    Alcotest.test_case "admin routes answer mid-session" `Quick test_admin_routes;
    Alcotest.test_case "bad lines leave a warning and a flight record" `Quick test_bad_lines;
    Alcotest.test_case "the flight recorder holds a whole session" `Quick
      test_flight_holds_session;
    Alcotest.test_case "an exception in evaluation fails the session, frees its ports" `Quick
      test_exception_releases_ports;
    Alcotest.test_case "an unterminated last line is read at EOF" `Quick
      test_unterminated_last_line;
    prop_chunk_boundaries;
  ]
