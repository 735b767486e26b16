(* Hash-consed store of ground terms and fluent-value pairs.

   The compiled engine evaluates over dense integer ids instead of
   re-traversing term structure: every ground term reachable from the
   stream, the knowledge base or the rule heads is interned once, and a
   fluent-value pair becomes a single id pairing two term ids. Ids are
   assigned densely in interning order and are never invalidated — a
   table only grows — so a compiled program can bake ids into closures
   at compile time and reuse them for every window of a run. *)

module TermTbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

type t = {
  term_ids : int TermTbl.t;  (* term -> id *)
  mutable terms : Term.t array;  (* id -> term *)
  mutable n_terms : int;
  fvp_ids : (int, int) Hashtbl.t;  (* packed (fluent id, value id) -> fvp id *)
  mutable fvp_fluent : int array;  (* fvp id -> fluent term id *)
  mutable fvp_value : int array;  (* fvp id -> value term id *)
  mutable fvp_pairs : (Term.t * Term.t) array;  (* fvp id -> canonical pair *)
  mutable n_fvps : int;
}

let dummy = Term.Atom ""

(* Small to start with: a program is compiled per entity bucket, and
   most buckets hold a handful of terms. The arrays double and the
   tables resize as far as a bucket needs. *)
let create () =
  {
    term_ids = TermTbl.create 16;
    terms = Array.make 16 dummy;
    n_terms = 0;
    fvp_ids = Hashtbl.create 16;
    fvp_fluent = Array.make 16 (-1);
    fvp_value = Array.make 16 (-1);
    fvp_pairs = Array.make 16 (dummy, dummy);
    n_fvps = 0;
  }

let grow a n fill = if n < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let id_of_term t term =
  match TermTbl.find_opt t.term_ids term with
  | Some id -> id
  | None ->
    let id = t.n_terms in
    t.terms <- grow t.terms id dummy;
    t.terms.(id) <- term;
    t.n_terms <- id + 1;
    TermTbl.replace t.term_ids term id;
    id

let find_term t term = TermTbl.find_opt t.term_ids term
let term_of_id t id = t.terms.(id)
let term_count t = t.n_terms

(* Term ids stay well below 2^31 in any realistic run, so a pair packs
   into one immediate int key. *)
let pack f v = (f lsl 31) lor v

let fvp_id t ~fluent ~value =
  let key = pack fluent value in
  match Hashtbl.find_opt t.fvp_ids key with
  | Some id -> id
  | None ->
    let id = t.n_fvps in
    t.fvp_fluent <- grow t.fvp_fluent id (-1);
    t.fvp_value <- grow t.fvp_value id (-1);
    t.fvp_pairs <- grow t.fvp_pairs id (dummy, dummy);
    t.fvp_fluent.(id) <- fluent;
    t.fvp_value.(id) <- value;
    t.fvp_pairs.(id) <- (t.terms.(fluent), t.terms.(value));
    t.n_fvps <- id + 1;
    Hashtbl.replace t.fvp_ids key id;
    id

let find_fvp t ~fluent ~value = Hashtbl.find_opt t.fvp_ids (pack fluent value)

let fvp_of_terms t fluent value =
  let f = id_of_term t fluent in
  let v = id_of_term t value in
  fvp_id t ~fluent:f ~value:v

let find_fvp_terms t fluent value =
  match find_term t fluent with
  | None -> None
  | Some f -> (
    match find_term t value with
    | None -> None
    | Some v -> find_fvp t ~fluent:f ~value:v)

let fvp_terms t id = t.fvp_pairs.(id)
let fvp_fluent_id t id = t.fvp_fluent.(id)
let fvp_value_id t id = t.fvp_value.(id)
let fvp_count t = t.n_fvps
