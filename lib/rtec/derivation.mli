(** Always-on derivation recorder: compact integer provenance records.

    When enabled, the engine appends one {e flat integer record} per
    derived transition (initiation/termination of a simple fluent), per
    accepted [holdsFor] solution of a statically determined fluent, per
    carried interval and per window query — rule labels, variable names
    and terms are interned into the buffer's tables ({!Intern} for terms
    and fluent-value pairs, a private string table for labels), so a
    record is a handful of machine words and recording never builds a
    string or a proof tree. Proof trees — the grounded per-condition
    trails of {!step} — are reconstructed {e lazily} by {!events} from
    the stored substitutions and the rule bodies, only when an explain
    pipeline asks.

    Records live in a bounded ring buffer: when the buffer is full the
    {e oldest} record is evicted (counted in {!stats}), so memory stays
    bounded no matter how long the recorder stays on. {!set_sampling}
    additionally restricts recording to 1-in-N windows or to an
    arbitrary window predicate; the decision is a pure function of the
    query time, so every bucket of a grouped run keeps the same windows.

    The recorder follows the [Telemetry] discipline: a single [bool]
    gate, a strict no-op when disabled, and recognition output is
    bit-identical either way. There is one process-global buffer, and
    only one domain writes it: while the recorder is on,
    [Runtime.Service] evaluates every bucket on the calling domain, in
    the pass's order, so the same buckets append the same records in the
    same order on every run, at every [jobs]. *)

(** {1 Reconstructed views}

    These are the types PR 5 recorded eagerly; they are now only ever
    {e decoded} from the compact store. *)

type step = {
  index : int;  (** 1-based position of the condition in the rule body *)
  literal : string;  (** the body literal as written in the rule *)
  grounded : string;  (** the literal under the successful substitution *)
}

(** How a transition point was obtained. *)
type source =
  | Rule of { rule : string; steps : step list }
      (** a body derivation of an [initiatedAt]/[terminatedAt] rule *)
  | Pattern of { rule : string; pattern : string }
      (** a non-ground termination pattern applied to a ground initiation *)
  | Carry of { origin : string }
      (** amalgamated inertia carried across a window boundary; [origin]
          names the mechanism (["carry"] or ["initially"]) *)

type transition_kind = Init | Term

type event =
  | Query of { q : int; eval_from : int; window_start : int }
      (** marks the window evaluation that produced the records that
          follow it in buffer order *)
  | Transition of {
      fluent : Term.t;
      value : Term.t;
      time : int;
      kind : transition_kind;
      source : source;
    }
  | Derived of {
      fluent : Term.t;
      value : Term.t;
      rule : string;
      spans : (int * int) list;
      steps : step list;
    }  (** one accepted [holdsFor] solution of an SD rule *)
  | Input of { fluent : Term.t; value : Term.t; spans : (int * int) list }
      (** an input (stream) fluent consulted by the run *)

(** {1 Gate, capacity, sampling} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val recording : unit -> bool
(** Enabled {e and} the current window was selected by the sampling
    mode — the cheap guard recording sites test. *)

val reset : unit -> unit
(** Empties the ring and zeroes all counters. The ring
    allocation and intern tables are retained — interned ids are
    append-only, so reuse is safe and avoids rebuilding the
    vocabulary when recording is cycled around every run. *)

val set_capacity : int -> unit
(** Ring capacity in machine words (default [2^20], i.e. 8 MiB); takes
    effect at the next {!reset}. *)

(** Which windows to record. The decision is a pure function of the
    query time [q], so buckets agree on it without coordination. *)
type sampling =
  | Always
  | One_in of { n : int; seed : int }
      (** record a deterministic pseudo-random 1-in-[n] subset of
          windows; the subset depends only on [(seed, q)] *)
  | Windows of (int -> bool)
      (** record exactly the windows satisfying the predicate (used by
          [Provenance.Diff] to record only divergent windows) *)

val set_sampling : sampling -> unit
(** Default {!Always}. *)

(** {1 Recording} *)

val record_query : q:int -> eval_from:int -> window_start:int -> unit
(** Decides whether this window is sampled (arming or disarming every
    later record of the window) and, when sampled, appends the query
    marker. *)

val record_transition :
  kind:transition_kind ->
  rule:string ->
  fluent:Term.t ->
  value:Term.t ->
  time:int ->
  binds:(string * Term.t) list ->
  unit
(** A transition point derived by a rule body, with the successful
    substitution (resolved bindings). *)

val record_pattern :
  rule:string -> pattern:Term.t -> fluent:Term.t -> value:Term.t -> time:int -> unit
(** A ground initiation stopped by a non-ground termination pattern
    ([pattern] is the [pf = pv] equation, possibly non-ground). *)

val record_carry : origin:string -> fluent:Term.t -> value:Term.t -> time:int -> unit

val record_input : fluent:Term.t -> value:Term.t -> spans:(int * int) list -> unit

val record_derived :
  fluent:Term.t ->
  value:Term.t ->
  rule:string ->
  spans:(int * int) list ->
  binds:(string * Term.t) list ->
  steps:(int * (int * int) list) list ->
  unit
(** An accepted SD solution: result spans, the solution substitution,
    and per body-condition index the interval list it contributed. *)

(** {1 Compiled-path sink}

    The compiled evaluator works in its program's {!Intern} table; a
    sink memoises the translation from program ids to buffer ids so a
    compiled emission appends a record without allocating. *)

type sink

val sink : ?reuse:sink -> intern:Intern.t -> unit -> sink option
(** [None] unless {!recording} — callers skip all bookkeeping then.
    Otherwise [reuse], a sink an earlier call returned, comes back as it
    is when it was made for [intern]. A fresh sink starts with an empty
    memo. The caller owns the sink: a compiled program keeps its own and
    passes it back on every query, so its memo is built once for the
    program's life. {!reset} keeps a sink valid. *)

val sink_string : string -> int
(** Intern a rule label or variable name into the buffer. The id stays
    valid for the process's life, across {!reset}. *)

val sink_transition_ids :
  sink ->
  kind:transition_kind ->
  rule:int ->
  fvp:int ->
  time:int ->
  binds:int array ->
  unit
(** Append a rule transition from compiled ids: [rule] from
    {!sink_string}, [fvp] an id of the sink's source intern, and
    [binds] a flat array of pairs [(key, value)] where
    [key = (var lsl 1) lor is_time] with [var] from {!sink_string};
    [value] is a source-intern term id when [is_time = 0] and a raw
    time-point when [is_time = 1]. [binds] is caller-owned scratch and
    is not retained. *)

(** {1 Reading back} *)

val events : ?rules:(string * Ast.rule) list -> unit -> event list
(** Decode the retained records, oldest first, in append order.
    With [rules] (a label-indexed rule catalogue, see
    [Engine.labelled_rules]), per-condition {!step} trails are
    reconstructed by applying the stored substitution to the rule
    bodies; without it, [steps] are empty. *)

type stats = {
  records : int;  (** records appended since the last {!reset} *)
  evicted : int;  (** records evicted by ring wrap-around *)
  windows_sampled : int;
  windows_skipped : int;  (** windows rejected by the sampling mode *)
  retained_words : int;  (** words currently held in the ring *)
}

val stats : unit -> stats

val publish_metrics : unit -> unit
(** Push the deltas since the last publication into the telemetry
    registry ([derivation.records], [derivation.evicted],
    [derivation.windows.sampled], [derivation.windows.skipped],
    [derivation.retained_bytes]); a no-op while metrics are disabled. *)
