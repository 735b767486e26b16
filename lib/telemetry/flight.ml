type kind =
  | Ingest
  | Tick
  | Revision
  | Evict
  | Client_connect
  | Client_eof
  | Client_drop
  | Codec_fallback
  | Bad_line
  | Session_start
  | Session_end

let kind_code = function
  | Ingest -> 0
  | Tick -> 1
  | Revision -> 2
  | Evict -> 3
  | Client_connect -> 4
  | Client_eof -> 5
  | Client_drop -> 6
  | Codec_fallback -> 7
  | Bad_line -> 8
  | Session_start -> 9
  | Session_end -> 10

let kind_of_code = function
  | 0 -> Ingest
  | 1 -> Tick
  | 2 -> Revision
  | 3 -> Evict
  | 4 -> Client_connect
  | 5 -> Client_eof
  | 6 -> Client_drop
  | 7 -> Codec_fallback
  | 8 -> Bad_line
  | 9 -> Session_start
  | _ -> Session_end

let kind_name = function
  | Ingest -> "ingest"
  | Tick -> "tick"
  | Revision -> "revision"
  | Evict -> "evict"
  | Client_connect -> "client_connect"
  | Client_eof -> "client_eof"
  | Client_drop -> "client_drop"
  | Codec_fallback -> "codec_fallback"
  | Bad_line -> "bad_line"
  | Session_start -> "session_start"
  | Session_end -> "session_end"

type event = { kind : kind; t_ns : int; a : int; b : int; c : int }

(* Flat integer ring, [width] slots per record — the derivation
   recorder's storage discipline (PR 7) at a fixed size: recording is a
   handful of int stores into a preallocated array, eviction is the
   write index wrapping. *)
let width = 5

let t0 = Clock.now_ns ()
let since_start () = Int64.to_int (Int64.sub (Clock.now_ns ()) t0)

(* The recorder is shared by the evaluator, per-connection reader
   threads (codec fallbacks, bad lines) and — in principle — pool
   workers, so the ring state is mutex-protected; sites fire at
   burst/tick granularity, never per event, so the lock is uncontended
   in practice. *)
let mutex = Mutex.create ()
let capacity = ref 4096
let ring = ref (Array.make (4096 * width) 0)
let next = ref 0  (* records ever written; slot = next mod capacity *)

let set_capacity n =
  if n <= 0 then invalid_arg "Flight.set_capacity: capacity must be positive";
  Mutex.protect mutex (fun () ->
      capacity := n;
      ring := Array.make (n * width) 0;
      next := 0)

let reset () =
  Mutex.protect mutex (fun () ->
      Array.fill !ring 0 (Array.length !ring) 0;
      next := 0)

let record kind ?(a = 0) ?(b = 0) ?(c = 0) () =
  let t = since_start () in
  Mutex.protect mutex (fun () ->
      let base = !next mod !capacity * width in
      let r = !ring in
      r.(base) <- kind_code kind;
      r.(base + 1) <- t;
      r.(base + 2) <- a;
      r.(base + 3) <- b;
      r.(base + 4) <- c;
      incr next)

let total () = !next

let events () =
  Mutex.protect mutex (fun () ->
      let n = min !next !capacity in
      let first = !next - n in
      List.init n (fun i ->
          let base = (first + i) mod !capacity * width in
          let r = !ring in
          {
            kind = kind_of_code r.(base);
            t_ns = r.(base + 1);
            a = r.(base + 2);
            b = r.(base + 3);
            c = r.(base + 4);
          }))

(* Kind-specific operand names, so the dump reads without a legend. *)
let operand_names = function
  | Ingest -> ("items", "late", "dropped")
  | Tick -> ("now", "queries", "buckets")
  | Revision -> ("buckets", "from", "replays")
  | Evict -> ("buckets", "entities", "now")
  | Client_connect | Client_eof -> ("slot", "b", "c")
  | Client_drop -> ("slot", "write_failed", "c")
  | Codec_fallback | Bad_line -> ("bytes", "b", "c")
  | Session_start | Session_end -> ("a", "b", "c")

let event_to_json e =
  let na, nb, nc = operand_names e.kind in
  let operands =
    List.filter_map
      (fun (name, v) -> if name = "b" || name = "c" then None else Some (name, Json.Num (float_of_int v)))
      [ (na, e.a); (nb, e.b); (nc, e.c) ]
  in
  Json.Obj
    ([
       ("kind", Json.Str (kind_name e.kind));
       ("t_ms", Json.Num (float_of_int e.t_ns /. 1e6));
     ]
    @ operands)

let to_json () =
  let evs = events () in
  Json.Obj
    [
      ("schema", Json.Str "adg-flight/1");
      ("capacity", Json.Num (float_of_int !capacity));
      ("recorded", Json.Num (float_of_int !next));
      ("dropped", Json.Num (float_of_int (max 0 (!next - !capacity))));
      ("events", Json.List (List.map event_to_json evs));
    ]

let write file = Json.write_file ~indent:true file (to_json ())

let armed : string option ref = ref None

let arm file =
  let first = !armed = None in
  armed := Some file;
  if first then
    at_exit (fun () ->
        match !armed with
        | Some file -> ( try write file with Sys_error _ -> ())
        | None -> ())
