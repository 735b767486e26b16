(** Composite-activity detection over the synthetic AIS stream: runs an
    event description through the windowed engine and extracts the
    recognised instances of the reported activities. *)

type activity = { name : string; code : string; indicator : string * int }

val reported : activity list
(** The 8 activities of Figure 2, with their fluent indicators. *)

val detect :
  ?window:int ->
  ?step:int ->
  event_description:Rtec.Ast.t ->
  dataset:Maritime.Dataset.t ->
  unit ->
  (Rtec.Engine.result, string) result
(** Windowed recognition via {!Runtime.run} (defaults: one-hour window,
    half-hour step, one worker domain). *)

val instances :
  Rtec.Engine.result -> activity -> (Rtec.Engine.fvp * Rtec.Interval.t) list

val explain :
  ?window:int ->
  ?step:int ->
  gold:Rtec.Ast.t ->
  generated:Rtec.Ast.t ->
  dataset:Maritime.Dataset.t ->
  unit ->
  (Provenance.Diff.report, string) result
(** Recognises both event descriptions over the dataset's stream (with
    derivation provenance) and attributes every diverging time-point to
    the responsible rule and condition via {!Provenance.Diff.diff}.
    Omitting [window] evaluates each description in a single pass. *)
