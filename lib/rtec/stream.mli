(** Input streams.

    A stream carries (i) ground {e input events} — instantaneous happenings
    such as [entersArea(v1, a3)] at time-point 118 — and (ii) {e input
    statically determined fluents} whose maximal intervals are computed
    upstream of RTEC (in the maritime domain, the spatial [proximity]
    fluent). Events are indexed by predicate indicator and by time for the
    engine's two access patterns: scanning a window and point lookups. *)

type event = { time : int; term : Term.t }

type item =
  | Event of event
  | Fluent of (Term.t * Term.t) * Interval.t
      (** an input statically determined fluent batch: a ground
          [(fluent, value)] pair with (part of) its maximal intervals *)
(** One unit of streaming ingestion — the line-protocol payload the
    runtime service consumes ([Runtime.Service.ingest]). *)

type t

val make : ?input_fluents:((Term.t * Term.t) * Interval.t) list -> event list -> t
(** Builds a stream; events need not be sorted. Raises [Invalid_argument]
    on non-ground events. Each input fluent is a ground [(fluent, value)]
    pair with its maximal intervals; duplicate [(fluent, value)] keys are
    merged by unioning their interval lists. *)

val of_items : item list -> t
(** Builds a stream from a batch of ingestion items (events need not be
    sorted); same validation and dedup rules as {!make}. *)

val check_items : ctx:string -> item list -> unit
(** Raises [Invalid_argument] (prefixed with [ctx]) on the first
    non-ground item: the check every constructor applies. *)

val item_time : item -> int
(** The time an item enters the timeline: the event's time-point, or the
    earliest span start of a fluent batch ([max_int] for an empty
    interval list) — what watermark and lateness bookkeeping key on. *)

val events : t -> event list
(** All events in time order. *)

val size : t -> int
(** Number of events; O(1). *)

val extent : t -> int * int
(** [(min, max)] event time, [(0, 0)] for an empty stream; O(1). *)

val count_in : t -> from:int -> until:int -> int
(** Number of events with [from <= time <= until], by binary search. *)

val events_in : t -> functor_:string * int -> from:int -> until:int -> event list
(** Events with the given indicator and [from <= time <= until]. *)

val events_at : t -> functor_:string * int -> time:int -> event list

val indexed : t -> functor_:string * int -> event array
(** The stream's internal time-sorted event array for an indicator
    ([ [||] ] when absent). Shared, not copied: callers must not mutate
    it. This is the zero-copy access path the rule compiler builds its
    candidate tables from. *)

val input_fluents : t -> ((Term.t * Term.t) * Interval.t) list
val indicators : t -> (string * int) list
(** Event indicators present in the stream. *)

val append : t -> t -> t
(** Concatenates two streams. O(appended batch): the new events are kept
    as a pending tail and the sorted indexes are rebuilt lazily, in one
    merge, on the first query access (so a burst of appends between two
    query-grid advances costs one merge, not one per append). Size,
    extent and input fluents are maintained eagerly; duplicate
    input-fluent keys are unioned. Equal-time events of the left stream
    stay before those of the right. Instrumented: bumps the
    [stream.appends] counter and the [stream.append_events] /
    [stream.merged_size] histograms when telemetry is enabled.

    A stream with an unforced tail must be queried from a single domain
    until its first query access packs it (the runtime's service buckets
    each belong to one worker per pass, which satisfies this); a packed
    stream is immutable and freely shared. *)

val append_items : t -> ?input_fluents:((Term.t * Term.t) * Interval.t) list -> event array -> t
(** [append_items s items] appends a batch of events (and optional input
    fluents) without building an intermediate stream — the array-based
    fast path the streaming service appends each routed item with. Takes
    ownership of [items]: the array is sorted in place (stable, so
    equal-time events keep their array order) and must not be reused by
    the caller. Raises [Invalid_argument] on non-ground events or
    fluents. Same laziness, ordering and instrumentation as {!append}. *)

val of_batches : t list -> t
(** Folds a list of event batches into one stream with {!append}; the
    empty list yields the empty stream. Chunked/streaming ingestion
    front-ends build their working stream through this entry. *)

val drop_before : t -> int -> t
(** [drop_before s t] is [s] without the events older than time-point
    [t]; input fluents are kept untouched (they are few, and the engine
    clamps them to each window anyway). Returns [s] itself when nothing
    is dropped; otherwise the cut is array slices (per-indicator arrays
    with nothing to drop are shared), not a rebuild. The streaming
    service trims finalised history with this to keep its working set
    bounded. *)
