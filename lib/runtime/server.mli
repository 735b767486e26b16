(** One serve session, the pipeline behind [rtec_cli serve] with or
    without [--listen]. Every connection — stdin/stdout, a pipe pair, a
    TCP socket — gets a reader thread that reads it in chunks and
    decodes each complete line with its own {!Rtec.Io.Codec} (an
    unterminated last line is read at EOF). A reader pushes the lines of
    one read into one bounded ring as a single burst: the ring holds
    1,024 lines, a reader cuts bursts at 1,024 lines, and a burst that
    does not fit blocks its reader until it does. The calling thread is
    the one evaluator: it takes every queued line at once and handles
    them in order, one {!Service.ingest} per line. It ticks the service
    on [tick(T).] lines (exactly that, nothing after the dot) and on
    watermark progress, broadcasts each emission to every live
    connection and, once all have sent their EOF, drains and emits the
    final result, whose summary includes the {!pp_provenance} line while
    the derivation recorder is enabled. [service.ingest_queue.depth] and [depth_hwm] count
    queued lines, [service.ingest.blocked] counts bursts that had to
    wait, and [/healthz] reports [queue_saturated] while one waits. A
    line that does not parse or holds a non-ground fact is ignored with
    a warning and a [Bad_line] flight record, and counted
    ([service.bad_lines], and [bad_lines] in [/statusz]); a connection
    whose write fails is dropped ([service.clients.dropped]). *)

(** What [serve]'s flags of the same names set. *)
type config = {
  tick_every : int option;  (** tick once the watermark has moved this far *)
  emit : [ `Final | `Ticks ];  (** [`Ticks] adds a [% tick] snapshot after every tick *)
  admin_port : int option;
      (** serve [/metrics], [/healthz], [/statusz] and [/lastz] on
          127.0.0.1 ([0]: ephemeral, logged); implies metrics collection *)
}

val default : config
(** No auto-ticks, final emission only, no admin. *)

type source =
  | Channels of (in_channel * out_channel) list
      (** caller-owned connections: never closed, and the process's
          SIGPIPE disposition is left alone *)
  | Listen of { port : int; clients : int }
      (** bind 127.0.0.1:[port], log [listening on …] and accept
          [clients] connections; ignores SIGPIPE so that a vanished
          client surfaces as a failed write *)

type error =
  | Setup of string  (** the admin or listening port could not be bound *)
  | Recognition of string
      (** a tick or the final drain failed, or evaluation raised (the
          message is the exception's) *)

val run :
  config:config -> ?on_tick:(unit -> unit) -> Service.t -> source -> (unit, error) result
(** Serve one session to its end and release what the server opened,
    on every path: an exception raised while evaluating (by a bucket,
    a tick or [on_tick]) becomes [Error (Recognition _)].
    [on_tick] runs after every successful tick, before its emission.
    Records [Session_start], per-connection [Client_connect] /
    [Client_eof] / [Client_drop] and, on success, [Session_end] flight
    events. Never calls [exit]. *)

(** {2 The result printer}, shared with [rtec_cli recognise]: lines end
    in [@\n], and no printer flushes. *)

val pp_intervals : Format.formatter -> Rtec.Engine.result -> unit
(** One [holdsFor(F = V, Spans).] line per fluent-value pair. *)

val pp_summary : Format.formatter -> Service.stats -> unit
(** [% Q queries, E window-events, B shard(s) on J domain(s)] *)

val pp_provenance : Format.formatter -> unit -> unit
(** The derivation recorder's [% provenance: …] line. *)
