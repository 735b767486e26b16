open Rtec

let numeric = function
  | Term.Int n -> Some (float_of_int n)
  | Term.Real r -> Some r
  | _ -> None

(* Shared recursion for Definitions 4.1 and 4.11. [var_case] decides the
   distance between two variables; Definition 4.1 never reaches it because
   its inputs are ground. *)
let rec generic var_case u1 u2 =
  match (u1, u2) with
  | Term.Var v1, Term.Var v2 -> var_case v1 v2
  | Term.Var _, _ | _, Term.Var _ -> 1.
  | _ -> (
    match (numeric u1, numeric u2) with
    | Some x, Some y -> if Float.equal x y then 0. else 1.
    | _ -> (
      match (u1, u2) with
      | Term.Atom a, Term.Atom b -> if String.equal a b then 0. else 1.
      | Term.Compound (p, ss), Term.Compound (q, ts)
        when String.equal p q && List.length ss = List.length ts ->
        let k = float_of_int (List.length ss) in
        let sum = List.fold_left2 (fun acc s t -> acc +. generic var_case s t) 0. ss ts in
        sum /. (2. *. k)
      | _ -> 1.))

let ground u1 u2 =
  if not (Term.is_ground u1 && Term.is_ground u2) then
    invalid_arg "Distance.ground: expressions must be ground";
  generic (fun _ _ -> 1.) u1 u2

let expression ~vi1 ~vi2 u1 u2 =
  let var_case v1 v2 = if Var_instance.equal_instances vi1 v1 vi2 v2 then 0. else 1. in
  generic var_case u1 u2

let cost_matrix d rows cols =
  let m = Array.length rows and k = Array.length cols in
  if k > m then invalid_arg "Distance.cost_matrix: more columns than rows";
  Array.init m (fun i -> Array.init k (fun j -> d rows.(i) cols.(j)))

type strategy = Hungarian | Greedy

let m_assignments = Telemetry.Metrics.counter "similarity.assignments"
let h_matrix_rows = Telemetry.Metrics.histogram "similarity.matrix.rows"
let h_matrix_cols = Telemetry.Metrics.histogram "similarity.matrix.cols"
let m_cache_hit = Telemetry.Metrics.counter "similarity.rule_cache.hit"
let m_cache_miss = Telemetry.Metrics.counter "similarity.rule_cache.miss"

let assign strategy matrix =
  Telemetry.Metrics.incr m_assignments;
  Telemetry.Metrics.observe h_matrix_rows (float_of_int (Array.length matrix));
  Telemetry.Metrics.observe h_matrix_cols
    (float_of_int (if Array.length matrix = 0 then 0 else Array.length matrix.(0)));
  match strategy with
  | Hungarian -> Assignment.Kuhn_munkres.solve_rectangular matrix
  | Greedy -> Assignment.Greedy.solve_rectangular matrix

(* Definition 4.5 generalised, over pre-sized arrays: [xs] must be the
   larger side. Lengths are computed once by the caller — the public
   [set_distance] wrapper used to walk both lists four times (two
   [List.length] for the swap, two more for m/k) and re-allocate
   [Array.of_list] on every call. *)
let set_distance_arrays ~strategy d xs ys =
  let m = Array.length xs and k = Array.length ys in
  if m = 0 then 0.
  else begin
    let matrix = Array.init m (fun i -> Array.init k (fun j -> d xs.(i) ys.(j))) in
    let _, total = assign strategy matrix in
    (float_of_int (m - k) +. total) /. float_of_int m
  end

(* Definition 4.5: distance between two multisets given an element
   distance, with unmatched elements penalised by 1. *)
let set_distance ?(strategy = Hungarian) d xs ys =
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let xa, ya = if Array.length xa >= Array.length ya then (xa, ya) else (ya, xa) in
  set_distance_arrays ~strategy d xa ya

let ground_sets ea eb =
  List.iter
    (fun t ->
      if not (Term.is_ground t) then
        invalid_arg "Distance.ground_sets: expressions must be ground")
    (ea @ eb);
  set_distance ground ea eb

(* --- prepared rule views --- *)

(* Everything [Distance.rule] needs that depends only on one side of the
   comparison: the variable-instance map (Definitions 4.7-4.10), the body
   as an array, and a content hash for the rule-pair cache. Until PR 4
   both [Var_instance.of_rule] maps were recomputed inside every rule
   pair, i.e. m*k times per event-description matrix; a view is built
   once per rule, and the gold side of an experiment once per activity
   (see [prepare]). *)
type rule_view = {
  rule : Ast.rule;
  vi : Var_instance.t;
  body : Term.t array;
  hash : int;
}

type prepared = rule_view array

let rule_hash (r : Ast.rule) =
  List.fold_left (fun acc t -> (acc * 31) + Term.hash t) (Term.hash r.head) r.body

let view (r : Ast.rule) =
  { rule = r; vi = Var_instance.of_rule r; body = Array.of_list r.body; hash = rule_hash r }

let prepare rules = Array.of_list (List.map view rules)

(* Definition 4.12 over two prepared views. *)
let rule_views ~strategy v1 v2 =
  let head_distance = expression ~vi1:v1.vi ~vi2:v2.vi v1.rule.Ast.head v2.rule.Ast.head in
  let b1, b2, vi1, vi2 =
    if Array.length v1.body >= Array.length v2.body then (v1.body, v2.body, v1.vi, v2.vi)
    else (v2.body, v1.body, v2.vi, v1.vi)
  in
  let m = Array.length b1 and k = Array.length b2 in
  let body_total =
    if m = 0 then 0.
    else if k = 0 then float_of_int m
    else begin
      let matrix =
        Array.init m (fun i -> Array.init k (fun j -> expression ~vi1 ~vi2 b1.(i) b2.(j)))
      in
      let _, total = assign strategy matrix in
      float_of_int (m - k) +. total
    end
  in
  (head_distance +. body_total) /. float_of_int (m + 1)

let rule ?(strategy = Hungarian) (r1 : Ast.rule) (r2 : Ast.rule) =
  rule_views ~strategy (view r1) (view r2)

(* --- rule-pair distance cache --- *)

(* Content-hashed memo over [rule_views]: experiments grade many
   generated event descriptions against the same fixed gold rules (and
   error models leave most generated rules untouched), so the same rule
   pair recurs across every cost matrix that mentions it. Keys compare
   the full rule content, not just the hash, so collisions cannot corrupt
   a distance; values are deterministic, so a racing duplicate insert is
   harmless. The mutex only guards the table itself — distances are
   computed outside the lock, letting sweep domains fill the cache in
   parallel. *)
module Pair_key = struct
  type t = { h : int; strategy : strategy; v1 : rule_view; v2 : rule_view }

  let rule_equal (a : Ast.rule) (b : Ast.rule) =
    Term.equal a.head b.head && List.equal Term.equal a.body b.body

  let equal a b =
    a.h = b.h && a.strategy = b.strategy
    && rule_equal a.v1.rule b.v1.rule
    && rule_equal a.v2.rule b.v2.rule

  let hash a = a.h
end

module Pair_tbl = Hashtbl.Make (Pair_key)

let cache_mutex = Mutex.create ()
let pair_cache : float Pair_tbl.t = Pair_tbl.create 4096

(* A pair entry is two rules plus a float: at ~1 KB apiece this bounds
   the cache at a few hundred MB worst case, far beyond any experiment
   sweep (the full catalogue is ~10^5 distinct pairs). *)
let max_cache_entries = 1 lsl 18

let cached_rule_distance ~strategy v1 v2 =
  let key =
    {
      Pair_key.h =
        ((v1.hash * 31) + v2.hash) lxor (match strategy with Hungarian -> 0 | Greedy -> 1);
      strategy;
      v1;
      v2;
    }
  in
  Mutex.lock cache_mutex;
  let cached = Pair_tbl.find_opt pair_cache key in
  Mutex.unlock cache_mutex;
  match cached with
  | Some d ->
    Telemetry.Metrics.incr m_cache_hit;
    d
  | None ->
    Telemetry.Metrics.incr m_cache_miss;
    let d = rule_views ~strategy v1 v2 in
    Mutex.lock cache_mutex;
    if Pair_tbl.length pair_cache >= max_cache_entries then Pair_tbl.reset pair_cache;
    Pair_tbl.replace pair_cache key d;
    Mutex.unlock cache_mutex;
    d

(* --- event descriptions (Definition 4.14) --- *)

let event_description_prepared ?(strategy = Hungarian) p1 p2 =
  let xs, ys = if Array.length p1 >= Array.length p2 then (p1, p2) else (p2, p1) in
  set_distance_arrays ~strategy (fun a b -> cached_rule_distance ~strategy a b) xs ys

let event_description ?strategy kb1 kb2 =
  event_description_prepared ?strategy (prepare kb1) (prepare kb2)

let similarity_prepared ?strategy p1 p2 = 1. -. event_description_prepared ?strategy p1 p2
let similarity ?strategy kb1 kb2 = 1. -. event_description ?strategy kb1 kb2
