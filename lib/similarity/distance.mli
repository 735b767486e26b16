(** The similarity metric of Section 4.

    All distances lie in [0, 1]; the corresponding similarity is
    [1 - distance]. *)

type strategy = Hungarian | Greedy
(** How the minimum-cost mapping [g] is computed. The paper uses the
    Kuhn–Munkres algorithm ({!Hungarian}, the default); {!Greedy} is an
    ablation baseline that pairs cheapest cells first and may miss the
    optimal mapping. *)

val ground : Rtec.Term.t -> Rtec.Term.t -> float
(** Definition 4.1: distance between ground expressions. Numeric constants
    compare by value. Raises [Invalid_argument] on non-ground input. *)

val ground_sets : Rtec.Term.t list -> Rtec.Term.t list -> float
(** Definitions 4.3 and 4.5: distance between sets of ground expressions
    via a minimum-cost Kuhn–Munkres mapping; every unmatched expression is
    penalised by 1. Symmetric in its arguments. *)

val cost_matrix :
  ('a -> 'b -> float) -> 'a array -> 'b array -> float array array
(** Definition 4.3 generalised over the element distance: rows index the
    larger set, columns the smaller, padded with zero-cost unmatched
    slots. The caller must pass [|rows| >= |columns|]. *)

val expression :
  vi1:Var_instance.t -> vi2:Var_instance.t -> Rtec.Term.t -> Rtec.Term.t -> float
(** Definition 4.11: distance between possibly non-ground expressions,
    with variables compared through their instance lists in the enclosing
    rules. *)

val rule : ?strategy:strategy -> Rtec.Ast.rule -> Rtec.Ast.rule -> float
(** Definition 4.12: heads are compared to each other; bodies through a
    minimum-cost mapping; result normalised by [max body size + 1]. *)

type prepared
(** A preprocessed rule list: per-rule variable-instance maps
    (Definitions 4.7-4.10), body arrays and content hashes, computed
    once instead of once per rule pair. Prepare the fixed side of a
    comparison (e.g. the gold standard of one activity) once and reuse
    it against every generated event description. *)

val prepare : Rtec.Ast.rule list -> prepared

val event_description_prepared : ?strategy:strategy -> prepared -> prepared -> float
(** {!event_description} over prepared sides. Rule-pair distances are
    memoised in a process-global content-hashed cache (hit rate exposed
    as the [similarity.rule_cache.*] counters); the cache is domain-safe
    and values are bit-identical to the uncached computation. *)

val similarity_prepared : ?strategy:strategy -> prepared -> prepared -> float
(** [1 - event_description_prepared]. *)

val event_description :
  ?strategy:strategy -> Rtec.Ast.rule list -> Rtec.Ast.rule list -> float
(** Definition 4.14: distance between two event descriptions (as rule
    sets), via a minimum-cost mapping of rules. Equivalent to preparing
    both sides and calling {!event_description_prepared}. *)

val similarity : ?strategy:strategy -> Rtec.Ast.rule list -> Rtec.Ast.rule list -> float
(** [1 - event_description], the quantity reported in Figures 2a/2b. *)
