(* One serve session: a reader thread per connection decodes lines into
   one bounded ring; the calling thread is the single evaluator, which
   drives the {!Service} and broadcasts each emission to every live
   connection. *)

(* [blocked] counts bursts that had to wait for room, [dropped] counts
   connections detached after a failed write or read; [decode] and
   [emit] are the I/O halves of the stage-latency attribution (route and
   evaluate are recorded inside {!Service}). *)
let m_ingest_blocked = Telemetry.Metrics.counter "service.ingest.blocked"
let g_queue_depth = Telemetry.Metrics.gauge "service.ingest_queue.depth"
let g_queue_hwm = Telemetry.Metrics.gauge "service.ingest_queue.depth_hwm"
let m_clients_dropped = Telemetry.Metrics.counter "service.clients.dropped"
let m_bad_lines = Telemetry.Metrics.counter "service.bad_lines"
let h_stage_decode = Telemetry.Metrics.histogram "service.stage.decode_us"
let h_stage_emit = Telemetry.Metrics.histogram "service.stage.emit_us"

(* One message per protocol line, decoded on the reader thread — the
   evaluator never touches bytes. [Client_eof] carries whether the
   connection ended cleanly or died mid-read. *)
type msg =
  | Ingest of Rtec.Stream.item list
  | Tick_at of int
  | Bad_line of string
  | Client_eof of { slot : int; dropped : bool }

(* Bounded multi-producer single-consumer ring of messages, counted in
   lines and moved in bursts: a reader pushes the lines of one read (at
   most [ring_capacity] of them) under one lock acquisition, and the
   evaluator takes every queued line under another. A burst that does
   not fit blocks its reader until it does, so backpressure reaches a
   fast producer through flow control instead of growing the heap
   without bound. [depth] is sampled at every push and take (a post-run
   snapshot of it reads 0); [depth_hwm] keeps the deepest point, which
   is what a capacity decision needs. *)
let ring_capacity = 1024

type ring = {
  queue : msg Queue.t;
  mutable hwm : int;  (* deepest the ring has ever been *)
  mutable waiting : int;  (* bursts blocked until they fit *)
  lock : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
}

let note_depth r =
  let len = Queue.length r.queue in
  if len > r.hwm then r.hwm <- len;
  Telemetry.Metrics.set g_queue_depth (float_of_int len);
  Telemetry.Metrics.set g_queue_hwm (float_of_int r.hwm)

(* Move [burst] (at most [ring_capacity] lines) onto the ring, leaving
   it empty. *)
let push r burst =
  let n = Queue.length burst in
  Mutex.lock r.lock;
  if Queue.length r.queue + n > ring_capacity then begin
    Telemetry.Metrics.incr m_ingest_blocked;
    r.waiting <- r.waiting + 1;
    while Queue.length r.queue + n > ring_capacity do
      Condition.wait r.not_full r.lock
    done;
    r.waiting <- r.waiting - 1
  end;
  Queue.transfer burst r.queue;
  note_depth r;
  Condition.signal r.not_empty;
  Mutex.unlock r.lock

(* Move every queued line onto the evaluator's [batch]. Each waiting
   reader re-checks whether its burst fits now. *)
let take r batch =
  Mutex.lock r.lock;
  while Queue.is_empty r.queue do
    Condition.wait r.not_empty r.lock
  done;
  Queue.transfer r.queue batch;
  note_depth r;
  Condition.broadcast r.not_full;
  Mutex.unlock r.lock

(* A tick line is [tick(T).] and nothing else; anything longer goes to
   the codec, which rejects a [tick] fact as a bad line. *)
let decode_line codec line =
  match
    if String.starts_with ~prefix:"tick(" line then
      Scanf.sscanf_opt line "tick(%d).%!" (fun t -> t)
    else None
  with
  | Some t -> Tick_at t
  | None -> (
    match Rtec.Io.Codec.items_of_string codec line with
    | items -> Ingest items
    | exception (Invalid_argument msg | Failure msg) -> Bad_line msg
    | exception (Rtec.Parser.Error { line; message } | Rtec.Lexer.Error { line; message }) ->
      Bad_line (Printf.sprintf "line %d: %s" line message))

(* A reader reads its connection in chunks into one reusable buffer and
   carries an unfinished line over to the next read; at EOF an
   unterminated last line is a line, as [input_line] has it. Each line
   is copied out of the buffer and decoded into the chunk's burst,
   which is pushed whole, or every [ring_capacity] lines. *)
let reader ~slot ~ic ~ring =
  let codec = Rtec.Io.Codec.create () in
  let buf = Bytes.create 65536 in
  let pending = Buffer.create 256 in
  let burst = Queue.create () in
  let add msg =
    Queue.push msg burst;
    if Queue.length burst = ring_capacity then push ring burst
  in
  let end_line () =
    let line = String.trim (Buffer.contents pending) in
    Buffer.clear pending;
    if line <> "" && line.[0] <> '%' then
      add (Telemetry.Metrics.time_us h_stage_decode (fun () -> decode_line codec line))
  in
  let dropped = ref false in
  (try
     let n = ref (input ic buf 0 (Bytes.length buf)) in
     while !n > 0 do
       let start = ref 0 in
       for k = 0 to !n - 1 do
         if Bytes.get buf k = '\n' then begin
           Buffer.add_subbytes pending buf !start (k - !start);
           end_line ();
           start := k + 1
         end
       done;
       Buffer.add_subbytes pending buf !start (!n - !start);
       if not (Queue.is_empty burst) then push ring burst;
       n := input ic buf 0 (Bytes.length buf)
     done;
     end_line ()
   with Sys_error _ | Unix.Unix_error _ -> dropped := true);
  add (Client_eof { slot; dropped = !dropped });
  if not (Queue.is_empty burst) then push ring burst

(* --- the shared result printer --- *)

let pp_intervals fmt result =
  List.iter
    (fun ((f, v), spans) ->
      Format.fprintf fmt "holdsFor(%a = %a, %a).@\n" Rtec.Term.pp f Rtec.Term.pp v
        Rtec.Interval.pp spans)
    result

let pp_summary fmt (s : Service.stats) =
  Format.fprintf fmt "%% %d queries, %d window-events, %d shard(s) on %d domain(s)@\n"
    s.queries s.events_processed s.buckets s.jobs

let pp_provenance fmt () =
  let s = Rtec.Derivation.stats () in
  Format.fprintf fmt
    "%% provenance: %d records (%d evicted), %d/%d windows sampled, %d KiB retained@\n"
    s.records s.evicted s.windows_sampled
    (s.windows_sampled + s.windows_skipped)
    (s.retained_words * (Sys.word_size / 8) / 1024)

let pp_tick fmt (now, (r : Service.result)) =
  Format.fprintf fmt "%% tick %d: %d queries, %d entity shard(s), watermark %s@\n" now
    r.stats.queries r.stats.buckets
    (match r.watermark with None -> "-" | Some w -> string_of_int w);
  pp_intervals fmt (Lazy.force r.intervals)

let pp_final fmt (r : Service.result) =
  let s = r.stats in
  pp_summary fmt s;
  Format.fprintf fmt
    "%% %d appends, %d late events (%d dropped), %d revisions, %d active / %d evicted \
     entities@\n"
    s.appends s.late_events s.dropped_late s.revisions s.entities_active s.entities_evicted;
  if Rtec.Derivation.is_enabled () then pp_provenance fmt ();
  pp_intervals fmt (Lazy.force r.intervals)

(* --- the session --- *)

type config = {
  tick_every : int option;
  emit : [ `Final | `Ticks ];
  admin_port : int option;
}

let default = { tick_every = None; emit = `Final; admin_port = None }

type source = Channels of (in_channel * out_channel) list | Listen of { port : int; clients : int }
type error = Setup of string | Recognition of string

(* What the admin thread reads, advisorily: the ring, one state per
   connection ("waiting" → "streaming" → "eof" / "dropped_read" /
   "dropped_write"), the lines ignored as bad and the time of the
   evaluator's last progress. *)
type state = {
  svc : Service.t;
  ring : ring;
  clients : string array;
  start_ns : int64;
  mutable bad_lines : int;
  mutable last_activity : int64;
}

type sink = { slot : int; fmt : Format.formatter; mutable live : bool }

let touch st = st.last_activity <- Telemetry.Clock.now_ns ()

(* Detach a connection after a failed read or write: one gone client
   must not take down the session for the others. *)
let drop st slot ~write =
  Telemetry.Metrics.incr m_clients_dropped;
  Telemetry.Flight.record Client_drop ~a:slot ~b:(Bool.to_int write) ();
  st.clients.(slot) <- (if write then "dropped_write" else "dropped_read");
  Telemetry.Log.warn ~src:"serve"
    (if write then "client dropped (write failed)" else "client dropped (read failed)")
    ~fields:[ ("client", Telemetry.Log.Int slot) ]

(* Print [x] to every live sink; a failed write (EPIPE surfacing as
   [Sys_error] once SIGPIPE is ignored) drops that sink. The printers end
   lines in [@\n], so the flush here is the only one per emission and a
   snapshot leaves in as few writes as the channel buffer allows (a
   closed-loop client would otherwise wait out a delayed ACK per line). *)
let emit st sinks pp x =
  Telemetry.Metrics.time_us h_stage_emit (fun () ->
      List.iter
        (fun s ->
          if s.live then
            try
              pp s.fmt x;
              Format.pp_print_flush s.fmt ()
            with Sys_error _ | Unix.Unix_error _ ->
              s.live <- false;
              drop st s.slot ~write:true)
        sinks)

let bad_line st msg =
  st.bad_lines <- st.bad_lines + 1;
  Telemetry.Metrics.incr m_bad_lines;
  Telemetry.Flight.record Bad_line ~a:(String.length msg) ();
  Telemetry.Log.warn ~src:"serve" "ignoring bad input line"
    ~fields:[ ("error", Telemetry.Log.Str msg) ]

let client_eof st ~slot ~dropped =
  if dropped then drop st slot ~write:false
  else begin
    Telemetry.Flight.record Client_eof ~a:slot ();
    st.clients.(slot) <- "eof";
    Telemetry.Log.debug ~src:"serve" "client finished sending"
      ~fields:[ ("client", Telemetry.Log.Int slot) ]
  end

(* The evaluator: a plain loop over the ring's messages, taken a batch
   at a time and handled in order, until every connection has sent its
   EOF; then the final drain and its summary. Each batch leaves one
   [ingest] flight record for its items, with the late and dropped ones
   among them, written before any tick the batch triggers (which cuts
   the record in two) so that the ring holds whole sessions. *)
let evaluate ~config ~on_tick st sinks =
  let last_tick = ref None in
  let batch = Queue.create () in
  let burst = ref 0 in
  let recorded =
    let s = Service.stats st.svc in
    ref (s.late_events, s.dropped_late)
  in
  let record_ingest () =
    if !burst > 0 then begin
      let s = Service.stats st.svc in
      let late, dropped = !recorded in
      Telemetry.Flight.record Ingest ~a:!burst ~b:(s.late_events - late)
        ~c:(s.dropped_late - dropped) ();
      burst := 0;
      recorded := (s.late_events, s.dropped_late)
    end
  in
  let next () =
    if Queue.is_empty batch then begin
      record_ingest ();
      take st.ring batch
    end;
    Queue.pop batch
  in
  let tick now =
    touch st;
    record_ingest ();
    Result.map
      (fun r ->
        last_tick := Some now;
        on_tick ();
        if config.emit = `Ticks then emit st sinks pp_tick (now, r))
      (Service.tick st.svc ~now)
  in
  let ingest items =
    touch st;
    match Service.ingest st.svc items with
    | exception Invalid_argument msg -> Ok (bad_line st msg)
    | () -> (
      burst := !burst + List.length items;
      match (config.tick_every, Service.watermark st.svc) with
      | Some n, Some wm when (match !last_tick with None -> true | Some t -> wm >= t + n) ->
        tick wm
      | _ -> Ok ())
  in
  let rec loop open_clients =
    if open_clients = 0 then Ok ()
    else
      match next () with
      | Ingest items -> continue (ingest items) open_clients
      | Tick_at t -> continue (tick t) open_clients
      | Bad_line msg ->
        bad_line st msg;
        loop open_clients
      | Client_eof { slot; dropped } ->
        client_eof st ~slot ~dropped;
        loop (open_clients - 1)
  and continue outcome open_clients =
    match outcome with Ok () -> loop open_clients | Error e -> Error e
  in
  match
    Result.bind (loop (List.length sinks)) (fun () ->
        record_ingest ();
        Service.drain st.svc)
  with
  | Error e -> Error (Recognition e)
  | Ok r ->
    emit st sinks pp_final r;
    Ok ()

(* --- admin routes --- *)

let healthz st =
  (* Saturated while a reader waits for room: its burst may not fit a
     ring that is less than full. *)
  let saturated = Mutex.protect st.ring.lock (fun () -> st.ring.waiting > 0) in
  let idle_ns = Int64.to_int (Int64.sub (Telemetry.Clock.now_ns ()) st.last_activity) in
  (* Unhealthy only when the ring is saturated AND the evaluator has made
     no progress for 10s — saturation alone is backpressure working. *)
  let stalled = saturated && idle_ns > 10_000_000_000 in
  Telemetry.Admin.json
    ~status:(if stalled then 503 else 200)
    Telemetry.Json.(
      Obj
        [
          ("status", Str (if stalled then "stalled" else "ok"));
          ("queue_saturated", Bool saturated);
          ("idle_ms", Num (float_of_int idle_ns /. 1e6));
        ])

let statusz st =
  let s = Service.stats st.svc in
  let depth, hwm =
    Mutex.protect st.ring.lock (fun () -> (Queue.length st.ring.queue, st.ring.hwm))
  in
  let uptime_ns = Int64.sub (Telemetry.Clock.now_ns ()) st.start_ns in
  let open Telemetry.Json in
  let ints fields = Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) fields) in
  Telemetry.Admin.json
    (Obj
       [
         ("uptime_s", Num (Int64.to_float uptime_ns /. 1e9));
         ( "watermark",
           match Service.watermark st.svc with None -> Null | Some w -> Num (float_of_int w) );
         ( "stats",
           ints
             [
               ("queries", s.queries); ("events_processed", s.events_processed);
               ("buckets", s.buckets); ("jobs", s.jobs); ("appends", s.appends);
               ("late_events", s.late_events); ("dropped_late", s.dropped_late);
               ("revisions", s.revisions); ("entities_active", s.entities_active);
               ("entities_evicted", s.entities_evicted);
             ] );
         ( "ingest_queue",
           ints [ ("depth", depth); ("depth_hwm", hwm); ("capacity", ring_capacity) ] );
         ( "clients",
           List
             (List.mapi
                (fun slot state -> Obj [ ("slot", Num (float_of_int slot)); ("state", Str state) ])
                (Array.to_list st.clients)) );
         ("bad_lines", Num (float_of_int st.bad_lines));
         ("flight_recorded", Num (float_of_int (Telemetry.Flight.total ())));
       ])

let routes st = function
  | "/metrics" ->
    let body = Telemetry.Metrics.to_prometheus () in
    Some { Telemetry.Admin.status = 200; content_type = "text/plain; version=0.0.4"; body }
  | "/healthz" -> Some (healthz st)
  | "/statusz" -> Some (statusz st)
  | "/lastz" -> Some (Telemetry.Admin.json (Telemetry.Flight.to_json ()))
  | _ -> None

(* A scrape target is only useful live: the endpoint implies metrics
   collection even without a --metrics file. *)
let start_admin st port =
  Telemetry.Metrics.enable ();
  match Telemetry.Admin.start ~port ~routes:(routes st) with
  | Error e -> Error e
  | Ok a ->
    Telemetry.Log.info ~src:"serve"
      (Printf.sprintf "admin endpoint on 127.0.0.1:%d" (Telemetry.Admin.port a));
    Ok (Some a)

(* --- connections --- *)

let connected st slot =
  Telemetry.Flight.record Client_connect ~a:slot ();
  st.clients.(slot) <- "streaming";
  Telemetry.Log.info ~src:"serve" "client connected"
    ~fields:[ ("client", Telemetry.Log.Int slot) ]

(* Bind and accept [clients] connections; returns them and how to close
   the sockets. SIGPIPE is ignored so that a client gone mid-emission is
   a failed write on its channel, not a dead process. *)
let accept st ~port ~clients =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock clients
  with
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close sock;
    Error (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" port (Unix.error_message e))
  | () ->
    Telemetry.Log.info ~src:"serve"
      (Printf.sprintf "listening on 127.0.0.1:%d" port)
      ~fields:[ ("clients", Telemetry.Log.Int clients) ];
    let fds =
      List.init clients (fun slot ->
          let fd, _ = Unix.accept sock in
          connected st slot;
          fd)
    in
    let close () =
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) (sock :: fds)
    in
    let chan fd = (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd) in
    Ok (List.map chan fds, close)

let run ~config ?(on_tick = ignore) svc source =
  Telemetry.Flight.record Session_start ();
  let n = match source with Channels chans -> List.length chans | Listen l -> l.clients in
  let ring =
    {
      queue = Queue.create ();
      hwm = 0;
      waiting = 0;
      lock = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
    }
  in
  let now = Telemetry.Clock.now_ns () in
  let st =
    {
      svc;
      ring;
      clients = Array.make n "waiting";
      start_ns = now;
      bad_lines = 0;
      last_activity = now;
    }
  in
  match Option.fold ~none:(Ok None) ~some:(start_admin st) config.admin_port with
  | Error e -> Error (Setup e)
  | Ok admin -> (
    let stop_admin () = Option.iter Telemetry.Admin.stop admin in
    let connections =
      match source with
      | Channels chans ->
        (* caller-owned: left open *)
        List.iteri (fun slot _ -> connected st slot) chans;
        Ok (chans, ignore)
      | Listen { port; clients } -> accept st ~port ~clients
    in
    match connections with
    | Error e ->
      stop_admin ();
      Error (Setup e)
    | Ok (chans, close) ->
      (* Readers are never joined: on success every reader has pushed its
         EOF (its last use of the channel) before the loop exits, and after
         a failure a reader may still be blocked in a read. *)
      let sinks =
        List.mapi
          (fun slot (ic, oc) ->
            ignore (Thread.create (fun () -> reader ~slot ~ic ~ring) ());
            { slot; fmt = Format.formatter_of_out_channel oc; live = true })
          chans
      in
      (* An exception from a bucket, [Service.tick] or [on_tick] is a
         failed recognition like any other: the sockets and the admin
         endpoint are released on every path. *)
      let outcome =
        match evaluate ~config ~on_tick st sinks with
        | outcome -> outcome
        | exception e -> Error (Recognition (Printexc.to_string e))
      in
      close ();
      stop_admin ();
      if Result.is_ok outcome then Telemetry.Flight.record Session_end ();
      outcome)
