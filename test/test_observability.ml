(* Unit tests for the live-introspection plane: the leveled structured
   logger (level floor, human and JSON-lines sinks), the bounded flight
   recorder (ring wrap, JSON dump) and the admin HTTP endpoint (route
   dispatch, error statuses, clean stop). *)

open Telemetry

(* --- logger ---

   The logger is process-global; every test routes the sinks to a
   temporary file and restores the defaults (human -> stderr, no JSON,
   Info floor) on the way out. *)

let with_log_capture ~json f =
  let tmp = Filename.temp_file "adg_log" ".txt" in
  let oc = open_out tmp in
  if json then Log.set_json (Some oc) else Log.set_human (Some oc);
  if json then Log.set_human None;
  Fun.protect
    ~finally:(fun () ->
      Log.set_human (Some stderr);
      Log.set_json None;
      Log.set_level Log.Info;
      close_out_noerr oc;
      try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      f ();
      flush oc;
      let ic = open_in_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let test_log_level_floor () =
  let out =
    with_log_capture ~json:false (fun () ->
        Log.set_level Log.Warn;
        Log.debug ~src:"t" "dropped debug";
        Log.info ~src:"t" "dropped info";
        Log.warn ~src:"t" "kept warn";
        Log.error ~src:"t" "kept error")
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "only warn and error rendered" 2 (List.length lines);
  let has needle line =
    let n = String.length needle and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "warn line tagged" true (has "WARN t: kept warn" (List.nth lines 0));
  Alcotest.(check bool) "error line tagged" true
    (has "ERROR t: kept error" (List.nth lines 1))

let test_log_human_fields () =
  let out =
    with_log_capture ~json:false (fun () ->
        Log.info ~src:"serve" "client connected"
          ~fields:[ ("client", Log.Int 3); ("addr", Log.Str "with space") ])
  in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "message present" true (has "client connected");
  Alcotest.(check bool) "int field bare" true (has "client=3");
  Alcotest.(check bool) "stringy field quoted" true (has "addr=\"with space\"")

let test_log_json_lines () =
  let out =
    with_log_capture ~json:true (fun () ->
        Log.set_level Log.Debug;
        Log.debug ~src:"feed" "first" ~fields:[ ("n", Log.Int 1) ];
        Log.warn ~src:"serve" "second" ~fields:[ ("ok", Log.Bool false) ])
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "one JSON object per record" 2 (List.length lines);
  let parse line =
    match Json.of_string line with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "log line is not JSON (%s): %s" e line
  in
  let first = parse (List.nth lines 0) and second = parse (List.nth lines 1) in
  Alcotest.(check (option string)) "level field" (Some "debug")
    (Option.bind (Json.member "level" first) Json.str);
  Alcotest.(check (option string)) "src field" (Some "feed")
    (Option.bind (Json.member "src" first) Json.str);
  Alcotest.(check (option string)) "msg field" (Some "first")
    (Option.bind (Json.member "msg" first) Json.str);
  Alcotest.(check (option (float 0.))) "typed int field" (Some 1.)
    (Option.bind (Json.member "n" first) Json.num);
  Alcotest.(check bool) "typed bool field" true
    (Json.member "ok" second = Some (Json.Bool false));
  Alcotest.(check bool) "timestamp present" true
    (Option.is_some (Json.member "ts" second))

(* --- flight recorder --- *)

(* The recorder is process-global; tests shrink the ring, then restore
   the default capacity (which also clears it). *)
let flight_scoped f = Fun.protect ~finally:(fun () -> Flight.set_capacity 4096) f

let test_flight_ring_wrap () =
  flight_scoped (fun () ->
      Flight.set_capacity 4;
      for i = 1 to 7 do
        Flight.record Flight.Tick ~a:i ()
      done;
      Alcotest.(check int) "total counts every record" 7 (Flight.total ());
      let evs = Flight.events () in
      Alcotest.(check int) "ring keeps the last capacity records" 4 (List.length evs);
      Alcotest.(check (list int)) "oldest-first, newest retained" [ 4; 5; 6; 7 ]
        (List.map (fun (e : Flight.event) -> e.a) evs);
      Alcotest.(check bool) "timestamps non-decreasing" true
        (let rec ordered = function
           | (a : Flight.event) :: (b :: _ as rest) -> a.t_ns <= b.t_ns && ordered rest
           | _ -> true
         in
         ordered evs))

let test_flight_json_dump () =
  flight_scoped (fun () ->
      Flight.set_capacity 8;
      Flight.record Flight.Session_start ();
      Flight.record Flight.Ingest ~a:120 ~b:3 ~c:1 ();
      Flight.record Flight.Client_drop ~a:2 ~b:1 ();
      let doc = Flight.to_json () in
      (* The dump must survive its own serialisation — what /lastz and
         the --flight-recorder file actually ship. *)
      let doc =
        match Json.of_string (Json.to_string ~indent:true doc) with
        | Ok d -> d
        | Error e -> Alcotest.failf "flight dump is not valid JSON: %s" e
      in
      Alcotest.(check (option string)) "schema" (Some "adg-flight/1")
        (Option.bind (Json.member "schema" doc) Json.str);
      Alcotest.(check (option (float 0.))) "recorded" (Some 3.)
        (Option.bind (Json.member "recorded" doc) Json.num);
      match Option.bind (Json.member "events" doc) Json.list with
      | Some [ start; ingest; drop ] ->
        Alcotest.(check (option string)) "kind names" (Some "session_start")
          (Option.bind (Json.member "kind" start) Json.str);
        Alcotest.(check (option (float 0.))) "ingest operand named" (Some 120.)
          (Option.bind (Json.member "items" ingest) Json.num);
        Alcotest.(check (option (float 0.))) "late operand named" (Some 3.)
          (Option.bind (Json.member "late" ingest) Json.num);
        Alcotest.(check (option (float 0.))) "drop slot named" (Some 2.)
          (Option.bind (Json.member "slot" drop) Json.num)
      | _ -> Alcotest.fail "expected exactly three flight events")

let test_flight_write_file () =
  flight_scoped (fun () ->
      Flight.set_capacity 8;
      Flight.record Flight.Evict ~a:1 ~b:2 ~c:300 ();
      let tmp = Filename.temp_file "adg_flight" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Flight.write tmp;
          let ic = open_in_bin tmp in
          let contents =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Json.of_string contents with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "flight file is not valid JSON: %s" e))

(* --- admin endpoint --- *)

let http_request port ~meth ~path =
  let conn = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect conn (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let oc = Unix.out_channel_of_descr conn in
      output_string oc (Printf.sprintf "%s %s HTTP/1.0\r\nHost: localhost\r\n\r\n" meth path);
      flush oc;
      let ic = Unix.in_channel_of_descr conn in
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

let status_of response =
  match String.split_on_char ' ' response with
  | _ :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "no status line in %S" response

let body_of response =
  let rec find i =
    if i + 4 > String.length response then String.length response
    else if String.sub response i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub response i (String.length response - i)

let with_admin routes f =
  match Admin.start ~port:0 ~routes with
  | Error e -> Alcotest.failf "admin start failed: %s" e
  | Ok t ->
    Fun.protect ~finally:(fun () -> Admin.stop t) (fun () -> f (Admin.port t))

let test_admin_routes () =
  let routes = function
    | "/ping" -> Some (Admin.text "pong")
    | "/doc" -> Some (Admin.json (Json.Obj [ ("ok", Json.Bool true) ]))
    | "/boom" -> failwith "handler exploded"
    | _ -> None
  in
  with_admin routes (fun port ->
      let r = http_request port ~meth:"GET" ~path:"/ping" in
      Alcotest.(check int) "text route status" 200 (status_of r);
      Alcotest.(check string) "text route body" "pong" (body_of r);
      let r = http_request port ~meth:"GET" ~path:"/doc?pretty=1" in
      Alcotest.(check int) "query string stripped" 200 (status_of r);
      (match Json.of_string (body_of r) with
      | Ok doc ->
        Alcotest.(check bool) "json body parses" true
          (Json.member "ok" doc = Some (Json.Bool true))
      | Error e -> Alcotest.failf "json route body invalid: %s" e);
      Alcotest.(check int) "unknown path is 404" 404
        (status_of (http_request port ~meth:"GET" ~path:"/missing"));
      Alcotest.(check int) "non-GET is 405" 405
        (status_of (http_request port ~meth:"POST" ~path:"/ping"));
      Alcotest.(check int) "raising handler is 500" 500
        (status_of (http_request port ~meth:"GET" ~path:"/boom")))

let test_admin_serial_requests () =
  (* One connection per request, served serially by the accept loop. *)
  let hits = ref 0 in
  let routes = function
    | "/count" ->
      incr hits;
      Some (Admin.text (string_of_int !hits))
    | _ -> None
  in
  with_admin routes (fun port ->
      for i = 1 to 5 do
        let r = http_request port ~meth:"GET" ~path:"/count" in
        Alcotest.(check string)
          (Printf.sprintf "request %d sees its own count" i)
          (string_of_int i) (body_of r)
      done)

let test_admin_stop_idempotent () =
  match Admin.start ~port:0 ~routes:(fun _ -> None) with
  | Error e -> Alcotest.failf "admin start failed: %s" e
  | Ok t ->
    let port = Admin.port t in
    Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
    Admin.stop t;
    Admin.stop t;
    (* The socket is gone: a fresh server can bind the same port. *)
    (match Admin.start ~port ~routes:(fun _ -> None) with
    | Ok t2 -> Admin.stop t2
    | Error e -> Alcotest.failf "port not released after stop: %s" e)

let test_admin_port_in_use () =
  with_admin (fun _ -> None) (fun port ->
      match Admin.start ~port ~routes:(fun _ -> None) with
      | Ok t2 ->
        Admin.stop t2;
        Alcotest.fail "second bind on a busy port should fail"
      | Error e ->
        Alcotest.(check bool) "error names the port" true
          (let needle = string_of_int port in
           let n = String.length needle and m = String.length e in
           let rec go i = i + n <= m && (String.sub e i n = needle || go (i + 1)) in
           go 0))

let suite =
  [
    Alcotest.test_case "log level floor" `Quick test_log_level_floor;
    Alcotest.test_case "log human rendering" `Quick test_log_human_fields;
    Alcotest.test_case "log JSON-lines sink" `Quick test_log_json_lines;
    Alcotest.test_case "flight ring wraps, keeps newest" `Quick test_flight_ring_wrap;
    Alcotest.test_case "flight JSON dump" `Quick test_flight_json_dump;
    Alcotest.test_case "flight file write" `Quick test_flight_write_file;
    Alcotest.test_case "admin routes and statuses" `Quick test_admin_routes;
    Alcotest.test_case "admin serves requests serially" `Quick test_admin_serial_requests;
    Alcotest.test_case "admin stop is idempotent and releases the port" `Quick
      test_admin_stop_idempotent;
    Alcotest.test_case "admin reports a busy port" `Quick test_admin_port_in_use;
  ]
