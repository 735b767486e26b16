type event = { time : int; term : Term.t }

type item =
  | Event of event
  | Fluent of (Term.t * Term.t) * Interval.t

module M = Map.Make (struct
  type t = string * int

  (* The order polymorphic compare gives, without its generic walk. *)
  let compare (n1, a1) (n2, a2) =
    let c = String.compare n1 n2 in
    if c <> 0 then c else Int.compare a1 a2
end)

(* The queryable form: every index materialised. [evs] and [times] are
   sorted by time (stable — insertion order on ties), the per-indicator
   arrays are the time-ordered subsequences of [evs]. *)
type packed = {
  evs : event array;
  times : int array;  (* times of [evs], for binary-searched counts *)
  by_indicator : event array M.t;
}

(* A stream is either packed or a packed base plus a chain of sorted
   pending tails. Appends only push a tail (O(batch)); the first query
   access merges the whole chain in one pass and caches the packed form
   in [repr]. Scalar facts (size, extent, input fluents) are maintained
   eagerly so watermark/extent bookkeeping never forces the indexes.

   Concurrency: forcing mutates [repr], so a stream with pending tails
   must be owned by a single domain until packed. The runtime respects
   this by construction — service buckets are each touched by exactly
   one worker per pass, with happens-before at the pool join — and a
   packed stream is immutable and freely shared. *)
type t = {
  size : int;
  extent : int * int;
  input_fluents : ((Term.t * Term.t) * Interval.t) list;
  mutable repr : repr;
}

and repr = Packed of packed | Pending of { base : t; tail : event array }

module FvpTbl = Hashtbl.Make (struct
  type t = Term.t * Term.t

  let equal (f1, v1) (f2, v2) = Term.equal f1 f2 && Term.equal v1 v2
  let hash = Hashtbl.hash
end)

(* Duplicate (fluent, value) keys are unioned rather than concatenated, so
   downstream consumers see one entry per FVP; first-occurrence order is
   preserved. Keys compare as terms: two terms that print alike (reals
   past six digits, an atom and an integer) stay apart. *)
let dedup_input_fluents input_fluents =
  match input_fluents with
  | [] | [ _ ] -> input_fluents
  | _ ->
    let order = ref [] and tbl = FvpTbl.create 16 in
    List.iter
      (fun (fv, spans) ->
        match FvpTbl.find_opt tbl fv with
        | None ->
          order := fv :: !order;
          FvpTbl.replace tbl fv spans
        | Some spans0 -> FvpTbl.replace tbl fv (Interval.union spans0 spans))
      input_fluents;
    List.rev_map (fun fv -> (fv, FvpTbl.find tbl fv)) !order

(* Stable merge of two time-sorted event arrays; elements of [a] precede
   equal-time elements of [b]. The common streaming case — the tail
   starts at or after the base's last event — degrades to a plain
   concatenation. Never mutates its inputs (results may share them). *)
let merge_sorted a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 then b
  else if m = 0 then a
  else if a.(n - 1).time <= b.(0).time then Array.append a b
  else begin
    let out = Array.make (n + m) a.(0) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to n + m - 1 do
      if !j >= m || (!i < n && a.(!i).time <= b.(!j).time) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* Groups a sorted event array into the packed indexes. *)
let pack_sorted_array evs =
  let groups = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      let key = Term.indicator e.term in
      match Hashtbl.find_opt groups key with
      | Some r -> r := e :: !r
      | None -> Hashtbl.replace groups key (ref [ e ]))
    evs;
  let by_indicator =
    Hashtbl.fold
      (fun key r acc -> M.add key (Array.of_list (List.rev !r)) acc)
      groups M.empty
  in
  { evs; times = Array.map (fun e -> e.time) evs; by_indicator }

(* Merges a sorted tail into a packed base. [times] is rebuilt in one
   pass; [by_indicator] is updated only for indicators present in the
   tail, sharing the untouched arrays of the base. *)
let merge_packed bp tail =
  if Array.length tail = 0 then bp
  else begin
    let evs = merge_sorted bp.evs tail in
    (* The tail's events by indicator, newest first. *)
    let tail_groups =
      Array.fold_left
        (fun acc e ->
          M.update (Term.indicator e.term)
            (fun r -> Some (e :: Option.value r ~default:[]))
            acc)
        M.empty tail
    in
    let by_indicator =
      M.fold
        (fun key r acc ->
          let fresh = Array.of_list (List.rev r) in
          M.update key
            (function
              | None -> Some fresh
              | Some old -> Some (merge_sorted old fresh))
            acc)
        tail_groups bp.by_indicator
    in
    { evs; times = Array.map (fun e -> e.time) evs; by_indicator }
  end

let sorted_tails tails =
  match tails with
  | [ t ] -> t
  | ts ->
    let all = Array.concat ts in
    let sorted = ref true in
    for i = 1 to Array.length all - 1 do
      if all.(i).time < all.(i - 1).time then sorted := false
    done;
    (* Stable sort keeps append order on equal times, matching the
       chained-merge semantics of the eager implementation. *)
    if not !sorted then Array.stable_sort (fun a b -> Int.compare a.time b.time) all;
    all

(* Materialises (and caches) the packed indexes: walks the pending chain
   collecting tails oldest-first, merges them into one sorted tail, then
   merges that into the packed base — one merge per query grid advance
   instead of one per append. *)
let force s =
  match s.repr with
  | Packed p -> p
  | Pending _ ->
    let rec collect s tails =
      match s.repr with
      | Packed p -> (p, tails)
      | Pending { base; tail } -> collect base (tail :: tails)
    in
    let bp, tails = collect s [] in
    let p = merge_packed bp (sorted_tails tails) in
    s.repr <- Packed p;
    p

let of_packed ~input_fluents p =
  let n = Array.length p.evs in
  {
    size = n;
    extent = (if n = 0 then (0, 0) else (p.times.(0), p.times.(n - 1)));
    input_fluents = dedup_input_fluents input_fluents;
    repr = Packed p;
  }

(* Builds a stream from an already time-sorted event list. *)
let of_sorted ~input_fluents sorted =
  of_packed ~input_fluents (pack_sorted_array (Array.of_list sorted))

let check_event_ground ~ctx e =
  if not (Term.is_ground e.term) then
    invalid_arg
      (Printf.sprintf "%s: event %s is not ground" ctx (Term.to_string e.term))

let check_fluents_ground ~ctx fluents =
  List.iter
    (fun ((f, v), _) ->
      if not (Term.is_ground f && Term.is_ground v) then
        invalid_arg (ctx ^ ": input fluent is not ground"))
    fluents

let check_items ~ctx items =
  List.iter
    (function
      | Event e -> check_event_ground ~ctx e
      | Fluent (fv, spans) -> check_fluents_ground ~ctx [ (fv, spans) ])
    items

let make ?(input_fluents = []) events =
  List.iter (check_event_ground ~ctx:"Stream.make") events;
  check_fluents_ground ~ctx:"Stream.make" input_fluents;
  of_sorted ~input_fluents (List.stable_sort (fun a b -> Int.compare a.time b.time) events)

let of_items items =
  let events, fluents =
    List.fold_left
      (fun (es, fs) -> function
        | Event e -> (e :: es, fs)
        | Fluent (fv, spans) -> (es, (fv, spans) :: fs))
      ([], []) items
  in
  make ~input_fluents:(List.rev fluents) (List.rev events)

let item_time = function
  | Event e -> e.time
  | Fluent (_, spans) -> (
    match Interval.to_list spans with [] -> max_int | (s, _) :: _ -> s)

let events s = Array.to_list (force s).evs
let size s = s.size
let extent s = s.extent

(* First index with time >= t, via binary search. *)
let lower_bound arr t =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).time < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Same, over a plain time array. *)
let lower_bound_time arr t =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

let count_in s ~from ~until =
  if until < from then 0
  else
    let p = force s in
    lower_bound_time p.times (until + 1) - lower_bound_time p.times from

let events_in s ~functor_ ~from ~until =
  match M.find_opt functor_ (force s).by_indicator with
  | None -> []
  | Some arr ->
    let start = lower_bound arr from in
    let rec collect i acc =
      if i >= Array.length arr || arr.(i).time > until then List.rev acc
      else collect (i + 1) (arr.(i) :: acc)
    in
    collect start []

let events_at s ~functor_ ~time = events_in s ~functor_ ~from:time ~until:time

let indexed s ~functor_ =
  Option.value ~default:[||] (M.find_opt functor_ (force s).by_indicator)

let input_fluents s = s.input_fluents
let indicators s = List.map fst (M.bindings (force s).by_indicator)

let m_appends = Telemetry.Metrics.counter "stream.appends"
let h_append_events = Telemetry.Metrics.histogram "stream.append_events"
let h_merged_size = Telemetry.Metrics.histogram "stream.merged_size"

(* Input fluents of both sides are already deduped (every constructor
   dedups), so the union only needs recomputing when both contribute. *)
let combine_input_fluents fa fb =
  match (fa, fb) with [], f | f, [] -> f | fa, fb -> dedup_input_fluents (fa @ fb)

let combine_extent a b =
  if a.size = 0 then b.extent
  else if b.size = 0 then a.extent
  else (min (fst a.extent) (fst b.extent), max (snd a.extent) (snd b.extent))

let append a b =
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.observe h_append_events (float_of_int b.size);
  Telemetry.Metrics.observe h_merged_size (float_of_int (a.size + b.size));
  (* O(batch): push [b]'s (already sorted) events as a pending tail.
     Equal-time events of [a] stay before those of [b] when the chain is
     eventually forced, matching the stable sort in [make]. *)
  {
    size = a.size + b.size;
    extent = combine_extent a b;
    input_fluents = combine_input_fluents a.input_fluents b.input_fluents;
    repr = Pending { base = a; tail = (force b).evs };
  }

let append_items s ?(input_fluents = []) items =
  Array.iter (check_event_ground ~ctx:"Stream.append_items") items;
  check_fluents_ground ~ctx:"Stream.append_items" input_fluents;
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.observe h_append_events (float_of_int (Array.length items));
  Telemetry.Metrics.observe h_merged_size (float_of_int (s.size + Array.length items));
  Array.stable_sort (fun (a : event) b -> Int.compare a.time b.time) items;
  let n = Array.length items in
  let tail_extent =
    if n = 0 then (0, 0) else (items.(0).time, items.(n - 1).time)
  in
  {
    size = s.size + n;
    extent =
      (if s.size = 0 then tail_extent
       else if n = 0 then s.extent
       else
         ( min (fst s.extent) (fst tail_extent),
           max (snd s.extent) (snd tail_extent) ));
    input_fluents =
      combine_input_fluents s.input_fluents (dedup_input_fluents input_fluents);
    repr = Pending { base = s; tail = items };
  }

(* Chunked ingestion: fold a sequence of already-built batches into one
   stream via [append], then force the single chain merge — the "one
   merge per tick" the lazy representation buys. This is the entry point
   batch front-ends use (the CLI's multi-file recognise goes through
   it), so the appends telemetry above reflects real merge traffic. *)
let of_batches = function
  | [] -> make []
  | first :: rest ->
    let s = List.fold_left append first rest in
    ignore (force s);
    s

(* History trimming for the streaming service: events strictly older
   than [t] can no longer fall inside any future (or revisable) window,
   so drop them. Input fluents stay — there are few of them, the engine
   clamps them per window, and trimming their spans would complicate the
   revision replay for no working-set gain. The cut is three array
   slices plus a per-indicator trim (arrays with nothing to drop are
   shared), not a rebuild. *)
let drop_before s t =
  let p = force s in
  let keep = lower_bound_time p.times t in
  if keep = 0 then s
  else begin
    let n = s.size - keep in
    let evs = Array.sub p.evs keep n in
    let times = Array.sub p.times keep n in
    let by_indicator =
      M.filter_map
        (fun _ arr ->
          let cut = lower_bound arr t in
          if cut = 0 then Some arr
          else
            let len = Array.length arr - cut in
            if len = 0 then None else Some (Array.sub arr cut len))
        p.by_indicator
    in
    {
      size = n;
      extent = (if n = 0 then (0, 0) else (times.(0), times.(n - 1)));
      input_fluents = s.input_fluents;
      repr = Packed { evs; times; by_indicator };
    }
  end
