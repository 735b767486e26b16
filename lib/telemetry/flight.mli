(** Always-on bounded flight recorder: the serve session's black box.

    A fixed-size ring of compact structured events — ingest bursts,
    ticks, revisions, TTL evictions, client connect/drop, codec
    fallbacks — recorded unconditionally (recording is a mutex, four
    int stores and a clock read; sites fire per burst/tick/connection,
    never per event, so the cost stays a small share of a session, and
    the benchmark's serve workloads always pay it). When the ring is
    full the oldest record is overwritten whole, so a long-lived session
    always retains the most recent window of activity, and {!arm} dumps
    it to a JSON file from an [at_exit] hook — a session that dies on an
    uncaught exception still leaves its final moments on disk.

    Records are flat integers in one preallocated array (no per-record
    allocation): a kind code, a monotonic timestamp relative to process
    start, and three kind-specific operands. The decoded view names the
    operands per kind (see {!to_json}). *)

type kind =
  | Ingest  (** one evaluator burst: a = items ingested, b = late, c = dropped *)
  | Tick  (** a = now (event time), b = cumulative queries, c = live buckets *)
  | Revision
      (** one pass's revisions: a = buckets revised, b = earliest late
          time, c = queries replayed, summed over those buckets *)
  | Evict
      (** one pass's TTL evictions: a = buckets retired, b = entities
          evicted, c = now (the pass's event time) *)
  | Client_connect  (** a = client slot *)
  | Client_eof  (** a = client slot *)
  | Client_drop  (** a = client slot, b = 0 read failure / 1 write failure *)
  | Codec_fallback  (** a = chunk length in bytes *)
  | Bad_line  (** a = line length in bytes *)
  | Session_start  (** a/b/c free *)
  | Session_end  (** a/b/c free *)

type event = { kind : kind; t_ns : int; a : int; b : int; c : int }
(** [t_ns] is monotonic nanoseconds since process start. *)

val record : kind -> ?a:int -> ?b:int -> ?c:int -> unit -> unit

val set_capacity : int -> unit
(** Resize the ring (records retained), discarding current contents.
    Default 4096. *)

val reset : unit -> unit

val events : unit -> event list
(** Retained records, oldest first. *)

val total : unit -> int
(** Records ever written, including overwritten ones. *)

val to_json : unit -> Json.t
(** [{"schema":"adg-flight/1","capacity":…,"recorded":…,"dropped":…,
    "events":[{"kind":…,"t_ms":…,<named operands>},…]}] — operand names
    are kind-specific ([items]/[late]/[dropped] for ingest, [slot] for
    client events, …). *)

val write : string -> unit

val arm : string -> unit
(** Dump {!to_json} to this file when the process exits (normal exit,
    [exit], or an uncaught exception — every path that runs [at_exit]).
    Calling again replaces the target; the hook is registered once. *)
