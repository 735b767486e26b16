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

(** The per-query evaluation behind [Runtime.Service] (and so behind the
    one-shot [Runtime.run]): {!Session.params} fixes what every query of
    a service shares, and a session holds one entity shard's evaluation
    state — the accumulated interval map, the previous query time (delta
    evaluation) — plus its compiled-program cache. {!Session.process}
    evaluates exactly one query time against the stream it is given.
    Because every scheduling policy — batch sweep, live ticks,
    out-of-order revision replay — funnels through the same [process],
    batch/streaming differential guarantees hold by construction. *)
module Session : sig
  type params

  val params :
    ?compile:bool ->
    window:int ->
    step:int ->
    plan:Engine.plan ->
    knowledge:Knowledge.t ->
    unit ->
    (params, string) Result.t
  (** Fails on non-positive [window]/[step]. Every session of one service
      evaluates with the same params; [compile] (default [true]) builds a
      {!Compiled} program per session, [false] forces the interpreter —
      the differential oracle, with bit-identical results. *)

  val delta_ok : params -> bool
  (** Whether overlapping windows may be evaluated as step deltas
      ([step <= window] and a window-insensitive event description). *)

  type t

  type state
  (** An immutable evaluation state, which is its own checkpoint (O(1) to
      take: the accumulated map is persistent). The streaming service
      checkpoints after each query so a late event can roll the session
      back and replay the overlapping windows. Each fvp's spans are kept
      newest first: a query takes off only the leading spans that stop
      at or after its evaluation start, unions them with its result and
      shares the older spans; its carry test reads spans from the newest
      down to the first that starts at or before the evaluation start
      (one span in delta evaluation). So a query's cost follows its
      delta, not the session's history. *)

  val create : unit -> t
  (** A session in the {!pristine} state. The compiled program is built
      at the first {!process}, counted by the [window.compiles] metric.
      When a later [process] is given another stream value than the
      previous one, it refreshes the program ({!Compiled.refresh}) rather
      than compiling again. *)

  val pristine : state
  (** The state of a session that has processed nothing. *)

  val trimmed : t -> unit
  (** Tell the session that its stream lost history
      ([Stream.drop_before]): once the program's intern table holds more
      than twice the terms it held right after its last compile, the
      program is dropped and the next query compiles afresh. That keeps
      the table bounded by the retained stream at amortised cost: each
      compile is paid for by at least as many terms interned since the
      previous one. *)

  val prev_q : t -> int option
  (** The last query time processed, [None] in the pristine state. *)

  val process : params -> t -> stream:Stream.t -> lo:int -> int -> (unit, string) Result.t
  (** [process p t ~stream ~lo q] evaluates query time [q] over the
      window [(max lo (q - window + 1)) .. q] of [stream] — as a step
      delta when possible — and folds the result into the session's
      state. Query times must be presented in increasing order (the grid
      the service generates). [lo] is the grid origin: the full stream's
      extent start, identical across entity shards and unmoved by trims.
      Ground [initially] facts apply to a query only when its evaluation
      starts at or before [lo]. *)

  val save : t -> state
  val restore : t -> state -> unit

  val merge : state -> state -> state
  (** Pointwise union of two states taken at the same query time over
      disjoint entity components (it reverses each fvp's spans to union
      them). *)

  val absorb : t -> t -> unit
  (** [absorb t other] unions [other]'s evaluation state into [t]: the
      state merge behind bucket coalescing when a cross-entity item joins
      two previously independent entity shards. Both sessions must have
      processed the same query grid over disjoint entity components; a
      pristine [other] changes nothing. *)

  val result : t -> Engine.result
  (** The accumulated intervals, in the canonical fluent-value order;
      each span list is reversed into [Interval.t]'s order. *)

  val result_seq : t -> (Engine.fvp * Interval.t) Seq.t
  (** The accumulated intervals as a persistent sequence captured in
      O(1): it ranges over the state as of the call and is unaffected by
      later {!process}/{!restore}; each span list is reversed as the
      sequence reaches it. The streaming service builds its lazy
      per-tick results from this, so ticks whose result is discarded
      never pay the merge. *)

  val stats : t -> stats
end
