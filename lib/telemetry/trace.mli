(** Span-based tracing.

    A span is a named, timed region of execution; spans started while
    another span is open become its children, so the export is a tree
    (per-window recognition cost, per-call LLM latency, ...). The
    tracer is process-global and disabled by default: every probe first
    reads one [bool ref], and the disabled path performs no allocation
    and no clock read, so instrumentation can stay in hot paths.

    Spans are recorded into a growable array capped at
    {!set_max_spans} entries (default one million); beyond the cap new
    spans are dropped and counted rather than growing without bound. *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Span argument values (Chrome trace [args]). *)

type span
(** Token returned by {!start}; pass it to {!finish}. *)

val null_span : span
(** The token returned when tracing is disabled; {!finish} ignores it. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Forget all recorded spans (the enabled flag is unchanged). *)

val set_max_spans : int -> unit

val start : ?args:(string * value) list -> string -> span
(** Open a span; it becomes the parent of spans started before its
    {!finish}. *)

val finish : ?args:(string * value) list -> span -> unit
(** Close a span, appending [args] to the ones given at {!start}.
    Closing out of order is tolerated: ancestors stay open. *)

val with_span : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span is closed even
    if [f] raises. When disabled this is exactly [f ()]. *)

val with_local : tid:int -> (unit -> 'a) -> 'a
(** [with_local ~tid f] records the calling domain's spans into a
    private buffer while [f] runs, then appends them to the shared
    recorder (under a mutex) when [f] returns or raises. Worker domains
    must use this: the shared recorder is unsynchronised. [tid] tags the
    merged spans (their [span_tid] / Chrome track); the main domain
    records with tid 0. Spans still open at merge are closed then. *)

(** {1 Export} *)

type info = {
  span_id : int;
  span_parent : int;  (** 0 for roots *)
  span_name : string;
  span_tid : int;  (** 0 for the main domain; the [with_local] tid otherwise *)
  t_ns : int64;  (** start, relative to the earliest recorded span *)
  dur_ns : int64;
  span_args : (string * value) list;
}

val infos : unit -> info list
(** Recorded spans in start order (still-open spans report the duration
    up to now). *)

val dropped_spans : unit -> int

val to_text : unit -> string
(** Human-readable indented tree with millisecond durations. *)

val to_chrome : unit -> Json.t
(** Chrome [trace_event] document ("X" complete events, microsecond
    timestamps) — load the written file in [chrome://tracing] or
    Perfetto. *)

val write_chrome : string -> unit
