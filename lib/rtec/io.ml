let span_term (s : Interval.span) =
  let stop = if s.stop = Interval.infinity then Term.Atom "inf" else Term.Int s.stop in
  Term.list_ [ Term.Int s.start; stop ]

let spans_term spans = Term.list_ (List.map span_term spans)

let spans_of_term t =
  match Term.as_list t with
  | None -> invalid_arg "Io: expected a list of spans"
  | Some elems ->
    List.map
      (fun e ->
        match Term.as_list e with
        | Some [ Term.Int s; Term.Int stop ] -> (s, stop)
        | Some [ Term.Int s; Term.Atom "inf" ] -> (s, Interval.infinity)
        | _ -> invalid_arg "Io: expected a two-element [start, stop] span")
      elems
    |> Interval.of_list

let stream_to_string stream =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((fluent, value), spans) ->
      Buffer.add_string b
        (Printf.sprintf "holdsFor(%s, %s).\n"
           (Term.to_string (Term.eq fluent value))
           (Term.to_string (spans_term spans))))
    (Stream.input_fluents stream);
  List.iter
    (fun (e : Stream.event) ->
      Buffer.add_string b
        (Printf.sprintf "happensAt(%s, %d).\n" (Term.to_string e.term) e.time))
    (Stream.events stream);
  Buffer.contents b

(* The single fact-to-item conversion both the parser-backed slow path
   and the codec's fallback go through: a parsed clause is either an
   event occurrence or an input-fluent batch. *)
let item_of_fact ~ctx (r : Ast.rule) =
  if r.body <> [] then invalid_arg (ctx ^ ": expected facts");
  match r.head with
  | Term.Compound ("happensAt", [ term; Term.Int time ]) ->
    Stream.Event { Stream.time; term }
  | Term.Compound ("holdsFor", [ fv; spans ]) -> (
    match Term.as_fvp fv with
    | Some (f, v) -> Stream.Fluent ((f, v), spans_of_term spans)
    | None -> invalid_arg (ctx ^ ": holdsFor expects a fluent-value pair"))
  | other ->
    invalid_arg (Printf.sprintf "%s: unexpected fact %s" ctx (Term.to_string other))

(* The general path: full lexer -> parser -> AST pipeline, input order
   preserved. *)
let items_via_parser ~ctx source =
  List.map (item_of_fact ~ctx) (Parser.parse_clauses source)

module Codec = struct
  (* A hand-rolled recognizer for the two line shapes the serve/stream
     protocol actually uses,

       happensAt(F(args...), T).
       holdsFor(F(args...) = V, [[S1, E1], ...]).

     scanning bytes directly into terms without tokenizing. It accepts a
     strict subset of the parser's grammar chosen so that whenever the
     fast path produces items at all, they are exactly what
     {!items_via_parser} would produce (the differential test in
     test/test_codec.ml holds this). Anything outside the subset —
     quoted atoms, variables, arithmetic, rules, block comments,
     oversized integer literals — aborts the fast scan and re-parses the
     *whole* input through the general path, so error behaviour and
     results on exotic input are the parser's by construction. *)

  let m_fast = Telemetry.Metrics.counter "io.codec.fast"
  let m_fallback = Telemetry.Metrics.counter "io.codec.fallback"

  (* A codec carries no state: the scan allocates each atom afresh, so
     a long-lived connection retains nothing of what it has decoded. A
     per-connection atom memo would grow with every distinct name the
     connection sends, and sharing atoms saves no measurable time. *)
  type t = unit

  let create () = ()

  exception Fallback

  type cursor = { src : string; len : int; mutable pos : int }

  let is_lower c = c >= 'a' && c <= 'z'
  let is_digit c = c >= '0' && c <= '9'

  let is_ident c =
    is_lower c || is_digit c || (c >= 'A' && c <= 'Z') || c = '_'

  (* Whitespace and % line comments, exactly as the lexer skips them;
     /* block comments bail to the general path. *)
  let rec skip_ws c =
    if c.pos < c.len then
      match c.src.[c.pos] with
      | ' ' | '\t' | '\r' | '\n' ->
        c.pos <- c.pos + 1;
        skip_ws c
      | '%' ->
        while c.pos < c.len && c.src.[c.pos] <> '\n' do
          c.pos <- c.pos + 1
        done;
        skip_ws c
      | '/' when c.pos + 1 < c.len && c.src.[c.pos + 1] = '*' -> raise Fallback
      | _ -> ()

  let expect c ch =
    skip_ws c;
    if c.pos < c.len && c.src.[c.pos] = ch then c.pos <- c.pos + 1
    else raise Fallback

  (* Identifier starting with a lowercase letter; [not] is an operator
     to the lexer, so it bails. *)
  let scan_ident c =
    let start = c.pos in
    c.pos <- c.pos + 1;
    while c.pos < c.len && is_ident c.src.[c.pos] do
      c.pos <- c.pos + 1
    done;
    let word = String.sub c.src start (c.pos - start) in
    if String.equal word "not" then raise Fallback;
    word

  (* Mirrors the lexer's number rule: [-]digits, continuing into a real
     only on '.' followed by a digit. Integers are accumulated directly
     (bailing over 18 digits, where native-int behaviour would diverge);
     reals go through [float_of_string] on the exact slice the lexer
     would take, so the value is bit-identical. *)
  let scan_number c =
    let start = c.pos in
    if c.src.[c.pos] = '-' then c.pos <- c.pos + 1;
    let d0 = c.pos in
    while c.pos < c.len && is_digit c.src.[c.pos] do
      c.pos <- c.pos + 1
    done;
    if c.pos = d0 || c.pos - d0 > 18 then raise Fallback;
    if c.pos + 1 < c.len && c.src.[c.pos] = '.' && is_digit c.src.[c.pos + 1] then begin
      c.pos <- c.pos + 1;
      while c.pos < c.len && is_digit c.src.[c.pos] do
        c.pos <- c.pos + 1
      done;
      Term.Real (float_of_string (String.sub c.src start (c.pos - start)))
    end
    else begin
      let v = ref 0 in
      for i = d0 to c.pos - 1 do
        v := (!v * 10) + (Char.code c.src.[i] - Char.code '0')
      done;
      Term.Int (if c.src.[start] = '-' then - !v else !v)
    end

  let scan_int c =
    match scan_number c with Term.Int n -> n | _ -> raise Fallback

  (* Ground primary terms: atoms, numbers, compounds, lists. The caller
     checks the following delimiter, which is what keeps the subset
     honest — an operator after a primary (arithmetic, comparisons)
     means the parser would have kept going, so the scan bails there. *)
  let rec scan_term c =
    skip_ws c;
    if c.pos >= c.len then raise Fallback;
    let ch = c.src.[c.pos] in
    if is_lower ch then begin
      let name = scan_ident c in
      if c.pos < c.len && c.src.[c.pos] = '(' then begin
        c.pos <- c.pos + 1;
        Term.Compound (name, scan_args c)
      end
      else Term.Atom name
    end
    else if is_digit ch then scan_number c
    else if ch = '-' && c.pos + 1 < c.len && is_digit c.src.[c.pos + 1] then
      scan_number c
    else if ch = '[' then begin
      c.pos <- c.pos + 1;
      skip_ws c;
      if c.pos < c.len && c.src.[c.pos] = ']' then begin
        c.pos <- c.pos + 1;
        Term.list_ []
      end
      else Term.list_ (scan_elems c ~stop:']')
    end
    else raise Fallback

  and scan_args c = scan_elems c ~stop:')'

  and scan_elems c ~stop =
    let rec loop acc =
      let e = scan_term c in
      skip_ws c;
      if c.pos >= c.len then raise Fallback
      else if c.src.[c.pos] = ',' then begin
        c.pos <- c.pos + 1;
        loop (e :: acc)
      end
      else if c.src.[c.pos] = stop then begin
        c.pos <- c.pos + 1;
        List.rev (e :: acc)
      end
      else raise Fallback
    in
    loop []

  (* [[S, E], ...] with E an integer or the open-interval atom [inf];
     built straight into span pairs, unioned by [Interval.of_list] just
     like {!spans_of_term}. *)
  let scan_spans c =
    expect c '[';
    skip_ws c;
    if c.pos < c.len && c.src.[c.pos] = ']' then begin
      c.pos <- c.pos + 1;
      Interval.of_list []
    end
    else begin
      let scan_span () =
        expect c '[';
        skip_ws c;
        let start = scan_int c in
        expect c ',';
        skip_ws c;
        if c.pos >= c.len then raise Fallback;
        let stop =
          let ch = c.src.[c.pos] in
          if is_digit ch || ch = '-' then scan_int c
          else if is_lower ch && String.equal (scan_ident c) "inf" then
            Interval.infinity
          else raise Fallback
        in
        expect c ']';
        (start, stop)
      in
      let rec loop acc =
        let span = scan_span () in
        skip_ws c;
        if c.pos >= c.len then raise Fallback
        else if c.src.[c.pos] = ',' then begin
          c.pos <- c.pos + 1;
          skip_ws c;
          loop (span :: acc)
        end
        else if c.src.[c.pos] = ']' then begin
          c.pos <- c.pos + 1;
          Interval.of_list (List.rev (span :: acc))
        end
        else raise Fallback
      in
      loop []
    end

  let scan_fact c =
    if not (is_lower c.src.[c.pos]) then raise Fallback;
    let name = scan_ident c in
    expect c '(';
    match name with
    | "happensAt" ->
      let term = scan_term c in
      expect c ',';
      skip_ws c;
      if c.pos >= c.len then raise Fallback;
      let time =
        let ch = c.src.[c.pos] in
        if is_digit ch || ch = '-' then scan_int c else raise Fallback
      in
      expect c ')';
      expect c '.';
      Stream.Event { Stream.time; term }
    | "holdsFor" ->
      let f = scan_term c in
      skip_ws c;
      (* exactly '=', not the lexer's two-character '=<' *)
      if
        not
          (c.pos < c.len
          && c.src.[c.pos] = '='
          && not (c.pos + 1 < c.len && c.src.[c.pos + 1] = '<'))
      then raise Fallback;
      c.pos <- c.pos + 1;
      let v = scan_term c in
      expect c ',';
      skip_ws c;
      let spans = scan_spans c in
      expect c ')';
      expect c '.';
      Stream.Fluent ((f, v), spans)
    | _ -> raise Fallback

  let scan_items source =
    let c = { src = source; len = String.length source; pos = 0 } in
    let rec loop acc n =
      skip_ws c;
      if c.pos >= c.len then (List.rev acc, n)
      else loop (scan_fact c :: acc) (n + 1)
    in
    loop [] 0

  let items_of_string_ctx ~ctx source =
    match scan_items source with
    | items, n ->
      Telemetry.Metrics.incr ~by:n m_fast;
      items
    | exception Fallback ->
      Telemetry.Metrics.incr m_fallback;
      Telemetry.Flight.record Codec_fallback ~a:(String.length source) ();
      items_via_parser ~ctx source

  let items_of_string () source = items_of_string_ctx ~ctx:"Io.items_of_string" source
end

let stream_of_string source =
  Stream.of_items
    (Codec.items_of_string_ctx ~ctx:"Io.stream_of_string" source)

(* The serve line protocol is the stream file format read incrementally:
   each parsed fact becomes one ingestion item, input order preserved. *)
let items_of_string source = Codec.items_of_string () source

let knowledge_to_string kb =
  String.concat ""
    (List.map (fun fact -> Term.to_string fact ^ ".\n") (Knowledge.facts kb))

let knowledge_of_string = Knowledge.of_source

let write_stream oc stream = output_string oc (stream_to_string stream)

let write_knowledge oc kb = output_string oc (knowledge_to_string kb)
