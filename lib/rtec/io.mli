(** Textual serialisation of streams and background knowledge, in concrete
    RTEC syntax, so that datasets round-trip through files and the command
    line. An event is written as [happensAt(E, T).]; an input statically
    determined fluent as [holdsFor(F = V, [[S1, E1], [S2, E2], ...]).]
    (spans as two-element lists; the sentinel atom [inf] denotes an open
    interval); a fact as itself. *)

val stream_to_string : Stream.t -> string
val stream_of_string : string -> Stream.t
(** Raises {!Parser.Error} on malformed input and [Invalid_argument] on
    lines that are neither [happensAt] nor [holdsFor] facts. *)

val items_of_string : string -> Stream.item list
(** Parses a chunk of the stream format into ingestion items, input
    order preserved — the [serve] line protocol ([Runtime.Service]
    consumes the items). Raises like {!stream_of_string}. The same as
    {!Codec.items_of_string}. *)

(** Fast-path line decoding. [Codec] recognises the two protocol fact
    shapes — [happensAt(F(args...), T).] and
    [holdsFor(F(args...) = V, [[S, E], ...]).] — by scanning bytes
    directly into ground terms. It accepts a strict subset of the full
    grammar; any input outside it (quoted atoms, variables, arithmetic,
    rules, block comments) falls back to the general lexer/parser
    pipeline for the whole chunk, so results and errors are always
    exactly the parser's. Instrumented: [io.codec.fast] counts
    fast-decoded facts, [io.codec.fallback] counts chunks that took the
    general path. A codec value carries no state: it retains nothing of
    what it decodes, and readers on any thread may share one. *)
module Codec : sig
  type t

  val create : unit -> t
  val items_of_string : t -> string -> Stream.item list
end

val knowledge_to_string : Knowledge.t -> string
val knowledge_of_string : string -> Knowledge.t

val write_stream : out_channel -> Stream.t -> unit
val write_knowledge : out_channel -> Knowledge.t -> unit
