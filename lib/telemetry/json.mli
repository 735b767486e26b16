(** A minimal JSON tree: enough to serialise traces and metric
    snapshots, and to read them back ([rtec_cli jsonlint], tests)
    without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialise; [indent] pretty-prints with two-space indentation (and a
    trailing newline). Integral numbers print without a fraction;
    NaN/infinity become [null] (JSON has no spelling for them). *)

val write_file : ?indent:bool -> string -> t -> unit
(** [write_file file v] serialises [v] into [file] (truncating it). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. [\uXXXX] escapes outside ASCII are
    replaced by ['?'] — the telemetry writers never emit them. *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val num : t -> float option
val str : t -> string option
val list : t -> t list option
val obj : t -> (string * t) list option
