(** The RTEC reasoning engine.

    Computes, bottom-up over the fluent hierarchy, the maximal intervals of
    every defined fluent-value pair from a window of the input stream
    (Section 2, "Reasoning"). Simple fluents follow the law of inertia:
    initiation points are matched with the first subsequent termination
    point, where the initiation of a different value of the same fluent
    also acts as a termination. Statically determined fluents are computed
    by interval manipulation over the cached intervals of lower-level
    fluents. *)

type fvp = Term.t * Term.t
(** A ground fluent-value pair. *)

val compare_fvp : fvp -> fvp -> int
(** Lexicographic term order on (fluent, value); the canonical order for
    accumulating and merging recognition results deterministically. *)

type result = (fvp * Interval.t) list

type plan
(** What evaluation derives from the event description alone: its
    dependency analysis, evaluation order, ground [initially] facts and
    window-insensitivity. Built once per description and immutable, so
    every session of a service shares one plan, across domains too. *)

val plan : Ast.t -> plan
(** Never fails: a cyclic description's plan keeps the cycle error, and
    every {!run} over it fails with that message. *)

val initial_fvps : Ast.t -> fvp list
(** The description's ground [initially(F=V)] facts, the ones {!run}
    applies; any other [initially] fact is ignored. *)

val analysis : plan -> Dependency.t
(** The plan's dependency analysis, as {!Compiled.compile} takes it. *)

val window_insensitive : plan -> bool
(** {!Dependency.window_insensitive} of the planned description. *)

val run :
  ?carry:fvp list ->
  ?universe:fvp list ->
  ?input_from:int ->
  ?origin:int ->
  ?compiled:Compiled.program ->
  plan:plan ->
  knowledge:Knowledge.t ->
  stream:Stream.t ->
  from:int ->
  until:int ->
  unit ->
  (result, string) Result.t
(** Evaluates the event description over the events with
    [from <= time <= until]. [carry] lists the FVPs that held at the window
    start according to the previous query (RTEC's interval amalgamation);
    they are treated as initiated just before [from]. [universe] lists FVPs
    recognised in earlier windows: they act as extra grounding candidates
    when a [holdsFor] body literal enumerates the instances of a fluent
    schema, so windowed evaluation binds the same variables as a single
    pass even when the enabling fluent is quiet in the current window.
    [input_from] (default [from]) is the window start used to clamp input
    statically determined fluents — pass the true window start when [from]
    is only the step delta of a larger window. When [from <= origin],
    ground [initially(F=V)] facts of the event description are added to
    the carry. [origin] (default: the stream's first event time) is the
    start of the timeline: a session passes its grid origin, which stays
    put when the session's stream is trimmed. Fails when the description
    is not stratified or a fluent mixes rule kinds.

    [compiled] is a rule program from {!Compiled.compile} (for this plan,
    knowledge base and stream): transition rules then run as
    closure chains over interned terms, with bit-identical results — also
    while derivation recording is enabled, when each compiled emission is
    re-encoded through the program's {!Derivation.sink} into the same
    compact records the interpreted path appends. A compiled rule whose
    first event does not occur in [\[from, until\]] is counted as
    evaluated ([engine.rule_evaluations], [engine.compiled.hit]) and
    skipped ([engine.compiled.skipped]) without being entered. *)

val labelled_rules : Ast.t -> (string * Ast.rule) list
(** Every transition and [holdsFor] rule of the event description, paired
    with its provenance label (the parser-assigned rule id, or a
    positional ["name/arity#i"] fallback) — the catalogue
    [Derivation.events ~rules] needs to reconstruct proof steps from
    compact records. *)

val holds_at : result -> fvp -> int -> bool
val intervals : result -> fvp -> Interval.t
val find_fluent : result -> string * int -> (fvp * Interval.t) list
(** All computed instances of a fluent indicator. *)

val query : result -> Term.t -> (fvp * Interval.t) list
(** [query result pattern] returns the instances whose FVP unifies with
    the (possibly non-ground) pattern, e.g.
    [withinArea(Vessel, fishing) = true]. *)

(** Negative provenance: why a rule does {e not} derive an FVP at a
    time-point. A re-evaluation probe over a fully evaluated single-pass
    environment, used by the FP/FN attribution pipeline in
    [lib/provenance]; recognition itself never calls it. *)
module Diagnosis : sig
  type t

  type outcome =
    | Derivable  (** the rule derives the FVP at the queried point *)
    | Head_mismatch  (** the rule's head cannot produce this FVP/time *)
    | Failing of { index : int; literal : Term.t; grounded : Term.t }
        (** the first body condition (1-based) with no solution; [grounded]
            is the literal under the most advanced substitution frontier *)
    | Unsupported of string

  val prepare :
    event_description:Ast.t ->
    knowledge:Knowledge.t ->
    stream:Stream.t ->
    unit ->
    (t, string) Result.t
  (** Runs single-pass recognition over the stream's full extent and keeps
      the evaluated environment for probing. Derivation recording is
      suspended for the internal run. *)

  val result : t -> result

  val indicators : t -> (string * int) list
  (** Defined fluent indicators, in evaluation-analysis order. *)

  val rules_for : t -> string * int -> (string * Ast.rule) list
  (** The rules defining an indicator, each with its provenance label (the
      parser-assigned rule id, or a positional ["name/arity#i"]
      fallback) — the same labels derivation records use. *)

  val rule_at : t -> rule:Ast.rule -> fvp:fvp -> time:int -> outcome
  (** Replays [rule] for the ground [fvp] at [time]. For [initiatedAt]/
      [terminatedAt] rules the time-point is the transition time; for
      [holdsFor] rules it asks whether the derived interval covers the
      point, attributing a miss to the body condition where coverage was
      decided (descending through interval constructs whose inputs already
      lacked the point). *)
end
