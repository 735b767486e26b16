(** Drivers for the paper's three experiments (Figures 2a, 2b, 2c). *)

type generation = {
  session : Adg.Session.t;
  label : string;  (** e.g. "o1" + square *)
  per_activity : (string * float) list;
      (** similarity vs. the gold definition, for every gold entry *)
  average : float;  (** the 'all' bar: mean over all definitions *)
}

val generate : model:string -> scheme:Adg.Prompt.scheme -> unit -> generation
val generate_all : unit -> generation list
(** All 12 (model, scheme) combinations. *)

val similarity_table : Adg.Session.t -> (string * float) list
(** Similarity vs. gold for every gold entry, in gold-catalogue order —
    the per-activity sweep behind {!generate}. *)

val best_per_model : generation list -> generation list
(** For each model, the scheme with the highest average similarity — the
    six series of Figure 2a. *)

type corrected = {
  generation : generation;
  corrected_label : string;  (** filled-symbol label, e.g. "o1" + filled square *)
  ed : Rtec.Ast.t;
  correction : Adg.Correction.report;
  corrected_per_activity : (string * float) list;
  corrected_average : float;
}

val correct_top : ?n:int -> generation list -> corrected list
(** Applies the minimal syntactic correction to the [n] (default 3) best
    event descriptions — Figure 2b. *)

type accuracy_row = {
  label : string;
  per_activity_f1 : (string * float) list;  (** keyed by activity code *)
}

val predictive_accuracy :
  ?window:int -> ?step:int -> dataset:Maritime.Dataset.t -> corrected list ->
  (accuracy_row list, string) result
(** Figure 2c: recognition with each corrected event description vs. the
    hand-crafted one over the dataset stream. *)

val activity_codes : string list
(** ["h"; "aM"; "tr"; "tu"; "p"; "l"; "s"; "d"]. *)

val scheme_comparison : generation list -> (string * float * float) list
(** [(model, few_shot_avg, cot_avg)] over all 12 generations: the
    prompting-scheme sensitivity behind the paper's best-of selection. *)

val zero_shot_ablation : unit -> (string * float) list
(** Average similarity per model under zero-shot prompting — the setting
    the paper excluded from the pipeline for producing poor results. *)

val assignment_ablation : generation list -> (string * float * float) list
(** [(label, hungarian_avg, greedy_avg)] per generation: how the average
    similarity degrades when the minimum-cost mapping of Definitions
    4.5/4.12/4.14 is replaced by a greedy matcher. Greedy averages are
    never higher. *)

val similarity_of_definition : Adg.Session.t -> string -> float
(** Similarity of one generated activity definition vs. gold. *)
