let on = ref false

let enable () = on := true
let disable () = on := false
let is_enabled () = !on

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

(* Log-scale histogram: bucket [b] covers values up to [2 ** (b / 8)]
   (eighth-powers of two, ~9% relative width), so percentiles over
   nanosecond latencies and element counts come out within one bucket
   of the truth at constant memory. Count/sum/min/max are exact. The
   512-bucket range still spans 2^64, so nothing representable clamps. *)
let buckets = 512

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, item) Hashtbl.t = Hashtbl.create 64

(* Guards the registry and the merge of per-domain accumulators: handles
   are normally created at module initialisation in the main domain, but
   worker domains may register lazily and several workers can merge
   their local accumulators concurrently. *)
let registry_mutex = Mutex.create ()

let register name make describe =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some item -> (
        match describe item with
        | Some x -> x
        | None ->
          invalid_arg (Printf.sprintf "Metrics: %s already registered with another type" name))
      | None ->
        let x, item = make () in
        Hashtbl.replace registry name item;
        x)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; c_value = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_value = 0.; g_set = false } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          h_count = 0;
          h_sum = 0.;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          h_buckets = Array.make buckets 0;
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* --- per-domain accumulators ---

   The registry cells are plain mutable records: safe when only the main
   domain records, racy when worker domains run instrumented code
   concurrently. [with_local] gives the calling domain a private
   accumulator (keyed through [Domain.DLS]); every record made inside the
   scope lands there, and the accumulator is folded into the registry
   under [registry_mutex] when the scope exits — so worker metrics are
   exact, merged at join, and never contend on the hot path. *)

type local = {
  l_counters : (string, int ref) Hashtbl.t;
  l_gauges : (string, float) Hashtbl.t;
  l_histograms : (string, histogram) Hashtbl.t;
}

let local_key : local option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let fresh_histogram name =
  {
    h_name = name;
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_buckets = Array.make buckets 0;
  }

let incr ?(by = 1) c =
  if !on then
    match Domain.DLS.get local_key with
    | None -> c.c_value <- c.c_value + by
    | Some l -> (
      match Hashtbl.find_opt l.l_counters c.c_name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace l.l_counters c.c_name (ref by))

let value c = c.c_value
let set g v =
  if !on then
    match Domain.DLS.get local_key with
    | None ->
      g.g_value <- v;
      g.g_set <- true
    | Some l -> Hashtbl.replace l.l_gauges g.g_name v

let bucket_of v =
  if v <= 1. then 0
  else
    let b = int_of_float (Float.ceil (8. *. (Float.log v /. Float.log 2.))) in
    min (buckets - 1) (max 0 b)

let bucket_upper b = Float.pow 2. (float_of_int b /. 8.)

let observe_cell h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let observe h v =
  if !on then
    match Domain.DLS.get local_key with
    | None -> observe_cell h v
    | Some l ->
      let cell =
        match Hashtbl.find_opt l.l_histograms h.h_name with
        | Some cell -> cell
        | None ->
          let cell = fresh_histogram h.h_name in
          Hashtbl.replace l.l_histograms h.h_name cell;
          cell
      in
      observe_cell cell v

(* Fold a scope's accumulator into the registry. Counters and histograms
   add; a gauge keeps the last merged write. Only names with a registered
   handle can appear (the accumulator is keyed by handle names). *)
let merge_local l =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt registry name with
          | Some (Counter c) -> c.c_value <- c.c_value + !r
          | _ -> ())
        l.l_counters;
      Hashtbl.iter
        (fun name v ->
          match Hashtbl.find_opt registry name with
          | Some (Gauge g) ->
            g.g_value <- v;
            g.g_set <- true
          | _ -> ())
        l.l_gauges;
      Hashtbl.iter
        (fun name cell ->
          match Hashtbl.find_opt registry name with
          | Some (Histogram h) ->
            h.h_count <- h.h_count + cell.h_count;
            h.h_sum <- h.h_sum +. cell.h_sum;
            if cell.h_min < h.h_min then h.h_min <- cell.h_min;
            if cell.h_max > h.h_max then h.h_max <- cell.h_max;
            Array.iteri (fun i n -> h.h_buckets.(i) <- h.h_buckets.(i) + n) cell.h_buckets
          | _ -> ())
        l.l_histograms)

let with_local f =
  let l =
    {
      l_counters = Hashtbl.create 16;
      l_gauges = Hashtbl.create 8;
      l_histograms = Hashtbl.create 16;
    }
  in
  let prev = Domain.DLS.get local_key in
  Domain.DLS.set local_key (Some l);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set local_key prev;
      merge_local l)
    f

(* Timing bracket for stage-latency histograms: the clock is only read
   when collection is on, so a disabled probe stays one load and one
   branch. *)
let time_us h f =
  if not !on then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    observe h (Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e3);
    r
  end

let quantile h q =
  if h.h_count = 0 then 0.
  else begin
    let rank = max 1 (min h.h_count (int_of_float (Float.ceil (q *. float_of_int h.h_count)))) in
    let b = ref (buckets - 1) in
    let cum = ref 0 in
    (try
       for i = 0 to buckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    (* The bucket's upper bound, clamped into the observed range. *)
    Float.min h.h_max (Float.max h.h_min (bucket_upper !b))
  end

let reset () =
  Hashtbl.iter
    (fun _ item ->
      match item with
      | Counter c -> c.c_value <- 0
      | Gauge g ->
        g.g_value <- 0.;
        g.g_set <- false
      | Histogram h ->
        h.h_count <- 0;
        h.h_sum <- 0.;
        h.h_min <- Float.infinity;
        h.h_max <- Float.neg_infinity;
        Array.fill h.h_buckets 0 buckets 0)
    registry

(* --- snapshots --- *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}

(* Cumulative count at each occupied bucket's upper bound, smallest
   first — exactly the shape a Prometheus histogram series wants. Empty
   buckets are elided: cumulative exposition loses nothing by skipping
   boundaries where the count did not change. *)
let cumulative_buckets h =
  let acc = ref [] and cum = ref 0 in
  for b = 0 to buckets - 1 do
    if h.h_buckets.(b) > 0 then begin
      cum := !cum + h.h_buckets.(b);
      acc := (bucket_upper b, !cum) :: !acc
    end
  done;
  List.rev !acc

let summarise h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = (if h.h_count = 0 then 0. else h.h_min);
    max = (if h.h_count = 0 then 0. else h.h_max);
    mean = (if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count);
    p50 = quantile h 0.50;
    p90 = quantile h 0.90;
    p99 = quantile h 0.99;
    buckets = cumulative_buckets h;
  }

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name item ->
      match item with
      | Counter c -> counters := (name, c.c_value) :: !counters
      | Gauge g -> if g.g_set then gauges := (name, g.g_value) :: !gauges
      | Histogram h -> if h.h_count > 0 then histograms := (name, summarise h) :: !histograms)
    registry;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let find_counter snap name = List.assoc_opt name snap.counters

let summary_to_json s =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.count));
      ("sum", Json.Num s.sum);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("mean", Json.Num s.mean);
      ("p50", Json.Num s.p50);
      ("p90", Json.Num s.p90);
      ("p99", Json.Num s.p99);
    ]

let snapshot_to_json snap =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) snap.counters) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) snap.gauges));
      ("histograms", Json.Obj (List.map (fun (k, s) -> (k, summary_to_json s)) snap.histograms));
    ]

let to_json () = snapshot_to_json (snapshot ())
let write file = Json.write_file ~indent:true file (to_json ())

(* --- Prometheus 0.0.4 text exposition ---

   Metric names here are dotted ("window.queries"); Prometheus names admit
   [a-zA-Z_:][a-zA-Z0-9_:]*, so every other character maps to '_'. The
   log-scale histograms expose natively: one cumulative {le="..."} series
   per occupied quarter-power-of-two boundary, the mandatory {le="+Inf"}
   line, and the exact _sum/_count pair. *)

let prom_name name =
  let sane c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = ':'
  in
  let mapped = String.map (fun c -> if sane c then c else '_') name in
  if mapped = "" || (mapped.[0] >= '0' && mapped.[0] <= '9') then "_" ^ mapped else mapped

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let snapshot_to_prometheus snap =
  let buf = Buffer.create 1024 in
  let metric name typ lines =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
    List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) lines
  in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      metric n "counter" [ Printf.sprintf "%s %d" n v ])
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      metric n "gauge" [ Printf.sprintf "%s %s" n (prom_float v) ])
    snap.gauges;
  List.iter
    (fun (name, s) ->
      let n = prom_name name in
      metric n "histogram"
        (List.map
           (fun (upper, cum) ->
             Printf.sprintf "%s_bucket{le=\"%s\"} %d" n (prom_float upper) cum)
           s.buckets
        @ [
            Printf.sprintf "%s_bucket{le=\"+Inf\"} %d" n s.count;
            Printf.sprintf "%s_sum %s" n (prom_float s.sum);
            Printf.sprintf "%s_count %d" n s.count;
          ]))
    snap.histograms;
  Buffer.contents buf

let to_prometheus () = snapshot_to_prometheus (snapshot ())

let write_prometheus file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_prometheus ()))
