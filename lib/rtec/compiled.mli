(** Rule compilation: transition rules as closure chains over interned
    ground terms.

    [compile] specialises every [initiatedAt]/[terminatedAt] rule of an
    event description against a stream and knowledge base: candidate
    events and facts are pre-interned into flat per-indicator tables,
    and {!refresh} rewrites the event tables in place for a grown or
    trimmed stream without recompiling. A program is sized by its
    content: its intern, code and event tables start small and double
    as far as the stream needs. Pattern matching becomes integer comparison on
    {!Intern} ids, numeric guards read unboxed floats, and [holdsAt]
    probes hit the int-keyed engine cache through a callback. A compiled chain
    explores exactly the search tree the interpreter would (same
    candidate order, same depth-first backtracking), so recognition
    results — and the engine's hit/miss/rule-evaluation counters — are
    bit-identical.

    A query pays only for rules that can fire and facts that can match:
    {!may_fire} tells the engine which rules' first event is absent from
    the window, a knowledge literal visits only the fact rows its key
    atom selects, and emitted heads and probed fluents resolve to fvp
    ids through int-keyed memos on their slots' intern ids.

    The compiler is deliberately partial: rule shapes outside the
    analysed fragment (unbound probe arguments, [=] unification
    literals, non-ground heads such as termination patterns, non-simple
    event/time terms) are marked {!Interpreted} and the engine falls
    back to the interpreter for those rules only.

    A program's closure frames and event tables are mutable and
    unsynchronised: a program belongs to one domain. Each
    [Window.Session] compiles its own. *)

type compiled_rule

type rule_code = Compiled of compiled_rule | Interpreted

type program

val compile :
  analysis:Dependency.t -> knowledge:Knowledge.t -> stream:Stream.t -> unit -> program
(** Compile every transition rule of each simple fluent of the analysed
    event description ([Engine.analysis] of its plan). Never fails:
    uncompilable rules are recorded as {!Interpreted}. *)

val refresh : program -> Stream.t -> unit
(** Point the program's event tables at [stream], in place. An indicator
    whose event array is physically the one its table mirrors keeps the
    table; otherwise the new array's first event is looked up in the old
    one, the rows of the run the two arrays physically share from there
    are kept — where they are for a grown stream, blitted to offset 0
    for a trimmed one ([Stream.drop_before]) — and only the events after
    that run are interned and written. Rows past the new length are
    cleared. A table that outgrows its arrays reallocates them at twice
    its new length, so an append costs amortised O(1) rows and a table's
    capacity stays within twice the most rows it has held since
    {!compile}. Rules, closures, knowledge tables, the
    intern table and the probe memos are untouched, so evaluation against
    the refreshed program equals evaluation against a fresh {!compile} of
    [stream]. The intern table keeps every term it ever held: to bound it
    by a trimmed stream, compile afresh ([Window.Session] does once the
    table has doubled since its last compile). *)

val intern : program -> Intern.t
(** The program's intern table. The engine shares it with its cache so
    fvp ids baked into closures address cache entries directly. *)

val rule_codes : program -> ind:string * int -> rule_code array
(** Code for each rule of a fluent indicator, in [Dependency.info]
    order; [[||]] for indicators unknown to the program. *)

val stats : program -> int * int
(** [(compiled, fallback)] rule counts. *)

val kind : compiled_rule -> Derivation.transition_kind
(** Whether the rule initiates or terminates its head. *)

val may_fire : compiled_rule -> from:int -> until:int -> bool
(** [false] only when the rule's first body literal is a positive
    [happensAt] whose event table holds no event in [\[from, until\]]:
    {!run_rule} would then enumerate nothing, probe nothing and emit
    nothing, so a caller may skip it without changing any result,
    record or cache counter. One binary search. Other rules always may
    fire: a later literal can sit behind [holdsAt] probes, which count
    cache hits and misses. *)

val run_rule :
  compiled_rule ->
  from:int ->
  until:int ->
  probe:(int -> int -> bool) ->
  miss:(unit -> unit) ->
  emit:(int -> int -> unit) ->
  unit
(** Fire a compiled chain over the window [\[from, until\]]. [probe fvp t]
    answers ground [holdsAt] queries against the cache; [miss] is called
    when a probe's fluent term was never interned (a guaranteed cache
    miss, counted by the engine); [emit fvp t] receives each derived
    ground transition point, possibly with duplicates — exactly the
    solution multiset the interpreter derives. *)

(** {1 Provenance}

    The derivation recorder reads the successful substitution straight
    out of a chain's slot frame at emission time — the compiled
    equivalent of [Subst.bindings] on an interpreted solution. The
    bindings recorded are the rule's positively bound variables, in name
    order: the domain of the substitution the interpreter would produce
    for the same rule (negation-scoped temporaries excluded), which
    includes every head variable of a compilable rule. *)

val sink : program -> Derivation.sink option
(** The program's recorder sink, [None] unless [Derivation.recording].
    The program keeps the sink and gets it back from
    [Derivation.sink ~reuse] while the recorder buffer is the one it was
    made for, so its id translation memo outlives the query. *)

val recorded :
  compiled_rule ->
  Derivation.sink ->
  label:(unit -> string) ->
  (int -> int -> unit) ->
  int ->
  int ->
  unit
(** [recorded cr sk ~label emit] is [emit] that also appends each
    emission's compact transition record (rule [label], fvp, time, slot
    bindings) to [sk]. The label id and the bind keys are interned once
    per sink and kept on the rule, so [label] is called only then and a
    rule call formats, hashes and interns no strings. *)
