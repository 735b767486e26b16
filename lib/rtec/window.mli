(** Sliding-window stream processing (Section 2, "Reasoning").

    At each query time [q_i] the engine reasons over the events inside the
    window [(q_i - omega, q_i]]; older events are forgotten. Fluent-value
    pairs that hold at the window start are carried over from the previous
    query (interval amalgamation), so recognition is insensitive to window
    boundaries as long as [step <= omega]. *)

type stats = {
  queries : int;  (** number of query times processed *)
  events_processed : int;
      (** input events inside the evaluated region of each query, summed.
          With incremental (delta) evaluation each event is examined once;
          duration-sensitive event descriptions fall back to full-window
          re-evaluation, where overlapping regions count repeatedly. *)
}

val query_times : lo:int -> hi:int -> window:int -> step:int -> int list
(** The query time-points for a stream extent [(lo, hi)]: the first once a
    full window has elapsed (capped at [hi] for streams shorter than one
    window), then every [step], with a final query exactly at [hi] and no
    duplicates. *)

(** The per-query evaluation state behind both the one-shot {!run} and
    the long-lived [Runtime.Service]: a session owns the accumulated
    interval map, the previous query time (delta evaluation) and the
    compiled-program cache, and {!Session.process} evaluates exactly one
    query time against the session's current stream. Because every
    scheduling policy — batch sweep, live ticks, out-of-order revision
    replay — funnels through the same [process], batch/streaming
    differential guarantees hold by construction. *)
module Session : sig
  type t

  type checkpoint
  (** An immutable snapshot of the evaluation state (O(1) to take: the
      accumulated map is persistent). The streaming service checkpoints
      after each query so a late event can roll the session back and
      replay the overlapping windows. *)

  val create :
    ?compile:bool ->
    window:int ->
    step:int ->
    plan:Engine.plan ->
    knowledge:Knowledge.t ->
    stream:Stream.t ->
    unit ->
    (t, string) Result.t
  (** Fails like {!run} on non-positive [window]/[step]. Sessions of one
      event description share its [plan]. The compiled program (when
      [compile], the default) is built lazily at the first {!process},
      counted by the [window.compiles] metric. When the session's stream
      value has changed since, the next {!process} refreshes it
      ({!Compiled.refresh}) rather than compiling again. *)

  val set_stream : ?trimmed:bool -> t -> Stream.t -> unit
  (** Replace the stream the next queries evaluate against; the next
      query refreshes the compiled program onto it. Pass [~trimmed:true]
      when the stream lost history ([Stream.drop_before]): once the
      program's intern table holds more than twice the terms it held
      right after its last compile, the program is dropped and the next
      query compiles afresh. That keeps the table bounded by the
      retained stream at amortised cost: each compile is paid for by at
      least as many terms interned since the previous one. *)

  val stream : t -> Stream.t
  val prev_q : t -> int option
  val delta_ok : t -> bool
  (** Whether overlapping windows may be evaluated as step deltas
      ([step <= window] and a window-insensitive event description). *)

  val process : t -> lo:int -> int -> (unit, string) Result.t
  (** [process t ~lo q] evaluates query time [q] over the window
      [(max lo (q - window + 1)) .. q] — as a step delta when possible —
      and folds the result into the accumulated state. Query times must
      be presented in increasing order (the grid both {!run} and the
      service generate). [lo] is the grid origin: the full stream's
      extent start, identical across entity shards and unmoved by
      trims. Ground [initially] facts apply to a query only when its
      evaluation starts at or before [lo]. *)

  val save : t -> checkpoint
  val restore : t -> checkpoint -> unit

  val absorb : t -> t -> unit
  (** [absorb t other] unions [other]'s evaluation state into [t]: the
      state merge behind bucket coalescing when a cross-entity item joins
      two previously independent entity shards. Both sessions must have
      processed the same query grid over disjoint entity components. *)

  val merge_checkpoint : checkpoint -> checkpoint -> checkpoint
  (** Pointwise union of two checkpoints taken at the same query time
      over disjoint entity components. *)

  val result : t -> Engine.result
  (** The accumulated intervals, in the canonical fluent-value order —
      the same list {!run} returns. *)

  val result_seq : t -> (Engine.fvp * Interval.t) Seq.t
  (** The accumulated intervals as a persistent sequence captured in
      O(1): it ranges over the state as of the call and is unaffected by
      later {!process}/{!restore}. The streaming service builds its lazy
      per-tick results from this, so ticks whose result is discarded
      never pay the merge. *)

  val stats : t -> stats
end

val run :
  ?window:int ->
  ?step:int ->
  ?compile:bool ->
  event_description:Ast.t ->
  knowledge:Knowledge.t ->
  stream:Stream.t ->
  unit ->
  (Engine.result * stats, string) Result.t
(** Runs the engine over the whole stream. Without [window], a single
    query over the full extent is performed. [step] defaults to [window].
    [compile] (default [true]) builds a {!Compiled} rule program once and
    reuses it for every window; pass [false] to force the interpreter
    (the differential oracle — results are bit-identical either way).
    Intervals still open at a query time are truncated just past that
    query's horizon, so that the next overlapping window extends them
    seamlessly.

    Application code should prefer [Runtime.run], which adds
    entity-grouped multicore evaluation behind one config record; this
    low-level entry point remains as the tests' differential oracle. *)
