(* Compact integer derivation records.

   A record is a handful of machine words in a bounded ring buffer:

     header word  = (length-in-words lsl 3) lor tag
     tag 0 Query      [hdr; q; eval_from; window_start]
     tag 1 Rule       [hdr; kind; fvp; time; rule; n; n x (key; value)]
     tag 2 Pattern    [hdr; kind; fvp; time; rule; pattern-term]
     tag 3 Carry      [hdr; kind; fvp; time; origin]
     tag 4 Derived    [hdr; fvp; rule; n; n x (key; value);
                       nspans; nspans x (start; stop); nsteps;
                       nsteps x (index; nspans; nspans x (start; stop))]
     tag 5 Input      [hdr; fvp; nspans; nspans x (start; stop)]

   Terms and fluent-value pairs are ids of the buffer's private
   [Intern.t]; rule labels, carry origins and variable names are ids of
   a private string table. A substitution entry is a (key, value) word
   pair with [key = (var lsl 1) lor is_time]: term-valued bindings
   store a term id, time-valued bindings (the compiled evaluator keeps
   time-points unboxed) store the raw time-point and decode to
   [Term.Int]. Nothing here allocates on the recording path beyond the
   amortised ring/table growth. *)

type step = { index : int; literal : string; grounded : string }

type source =
  | Rule of { rule : string; steps : step list }
  | Pattern of { rule : string; pattern : string }
  | Carry of { origin : string }

type transition_kind = Init | Term

type event =
  | Query of { q : int; eval_from : int; window_start : int }
  | Transition of {
      fluent : Term.t;
      value : Term.t;
      time : int;
      kind : transition_kind;
      source : source;
    }
  | Derived of {
      fluent : Term.t;
      value : Term.t;
      rule : string;
      spans : (int * int) list;
      steps : step list;
    }
  | Input of { fluent : Term.t; value : Term.t; spans : (int * int) list }

(* --- configuration --- *)

type sampling = Always | One_in of { n : int; seed : int } | Windows of (int -> bool)

let on = ref false
let capacity = ref (1 lsl 20)
let sampling_mode = ref Always

let enable () = on := true
let disable () = on := false
let is_enabled () = !on
let set_capacity n = capacity := max 16 n
let set_sampling m = sampling_mode := m

let sample_window q =
  match !sampling_mode with
  | Always -> true
  | One_in { n; seed } -> n <= 1 || Hashtbl.hash (seed, q) mod n = 0
  | Windows p -> p q

(* --- buffers --- *)

type strings = {
  s_ids : (string, int) Hashtbl.t;
  mutable s_arr : string array;
  mutable s_len : int;
}

let fresh_strings () = { s_ids = Hashtbl.create 64; s_arr = [||]; s_len = 0 }

type buffer = {
  mutable data : int array; (* ring; allocated on first append *)
  mutable head : int; (* offset of the oldest record *)
  mutable used : int; (* words in use *)
  mutable intern : Intern.t;
  mutable strs : strings;
  mutable scratch : int array; (* record assembly area *)
  mutable armed : bool; (* current window passed the sampling gate *)
  mutable records : int;
  mutable evicted : int;
  mutable sampled : int;
  mutable skipped : int;
}

(* Memoised translation from a source intern table (the compiled
   program's) into the buffer's own tables; [-1] marks untranslated. *)
type sink = {
  sk_buf : buffer;
  sk_src : Intern.t;
  mutable sk_terms : int array;
  mutable sk_fvps : int array;
}

let fresh () =
  {
    data = [||];
    head = 0;
    used = 0;
    intern = Intern.create ();
    strs = fresh_strings ();
    scratch = Array.make 64 0;
    armed = true;
    records = 0;
    evicted = 0;
    sampled = 0;
    skipped = 0;
  }

let global = fresh ()
let global_mutex = Mutex.create ()
let local_key : buffer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = match Domain.DLS.get local_key with Some b -> b | None -> global
let recording () = !on && (current ()).armed

(* Keeps the ring allocation and intern tables: the tables are
   append-only (old ids stay valid, unreferenced entries are inert, and
   a sink made for the buffer stays valid), and rebuilding them
   dominated recorder overhead when the buffer is cleared around every
   run. The array is dropped only when a capacity shrink makes it
   oversized, so [set_capacity] still takes effect. *)
let clear b =
  if Array.length b.data > !capacity then b.data <- [||];
  b.head <- 0;
  b.used <- 0;
  b.armed <- true;
  b.records <- 0;
  b.evicted <- 0;
  b.sampled <- 0;
  b.skipped <- 0

(* --- the ring --- *)

let ensure_scratch b n =
  if Array.length b.scratch < n then
    b.scratch <- Array.make (max n (2 * Array.length b.scratch)) 0;
  b.scratch

let evict_one b =
  let len = b.data.(b.head) lsr 3 in
  let h = b.head + len in
  (* conditional subtract, not [mod]: records never exceed the ring *)
  b.head <- (if h >= Array.length b.data then h - Array.length b.data else h);
  b.used <- b.used - len;
  b.evicted <- b.evicted + 1

(* The ring is allocated small and grown geometrically up to the
   configured capacity: a recorder-on run pays for the words it actually
   retains, not for the 8 MiB bound up front — zeroing the full bound on
   every reset costs more than the recording itself on a
   window-per-millisecond workload. Growth happens strictly before the
   first eviction (eviction starts only once the ring has reached full
   capacity), so a growing ring never wraps ([head] is still 0) and the
   grow is a plain blit. *)
let initial_ring = 4096

(* Reserve [n] words for one record and return the ring index of its
   first word, or [-1] when the record can never fit (counted as
   evicted). Evicts the oldest records to make room once the ring has
   reached full capacity. [head = 0] re-checks the no-wrap invariant
   before growing: it only fails when [set_capacity] was raised mid-run
   after evictions began, in which case the ring just keeps evicting at
   its current size until the next reset. *)
let reserve_slow b n =
  if Array.length b.data = 0 then b.data <- Array.make (min initial_ring !capacity) 0;
  while
    b.head = 0 && Array.length b.data - b.used < n && Array.length b.data < !capacity
  do
    let d = Array.make (min !capacity (2 * Array.length b.data)) 0 in
    Array.blit b.data 0 d 0 b.used;
    b.data <- d
  done;
  let cap = Array.length b.data in
  if n > cap then begin
    b.evicted <- b.evicted + 1;
    -1
  end
  else begin
    while cap - b.used < n do
      evict_one b
    done;
    let tail = b.head + b.used in
    let tail = if tail >= cap then tail - cap else tail in
    b.used <- b.used + n;
    tail
  end

(* Hot path: no eviction yet ([head = 0], so the ring is the prefix
   [0, used)) and the record fits without growing — a bump allocation.
   Everything else (first append, growth, wrap, eviction) is the cold
   [reserve_slow]. *)
let[@inline] reserve b n =
  let tail = b.used in
  if b.head = 0 && tail + n <= Array.length b.data then begin
    b.used <- tail + n;
    tail
  end
  else reserve_slow b n

(* Append the first [n] words of [src] as one record. [count] is off
   when a merge transfers a record already counted by its worker
   buffer. *)
let append_gen ~count b src n =
  let base = reserve b n in
  if base >= 0 then begin
    let cap = Array.length b.data in
    let first = min n (cap - base) in
    Array.blit src 0 b.data base first;
    if first < n then Array.blit src first b.data 0 (n - first);
    if count then b.records <- b.records + 1
  end

let append b src n = append_gen ~count:true b src n

(* --- interning helpers --- *)

let str_id b s =
  let st = b.strs in
  match Hashtbl.find_opt st.s_ids s with
  | Some i -> i
  | None ->
    let i = st.s_len in
    if i >= Array.length st.s_arr then begin
      let arr = Array.make (max 16 (2 * Array.length st.s_arr)) "" in
      Array.blit st.s_arr 0 arr 0 st.s_len;
      st.s_arr <- arr
    end;
    st.s_arr.(i) <- s;
    st.s_len <- i + 1;
    Hashtbl.add st.s_ids s i;
    i

let kind_bit = function Init -> 0 | Term -> 1
let kind_of_bit b = if b = 0 then Init else Term

(* Bindings are stored sorted by variable name so the interpreted and
   compiled paths (which sorts its binding spec at compile time) encode
   identical substitutions. *)
let sort_binds binds = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) binds

(* --- recording --- *)

let record_query ~q ~eval_from ~window_start =
  if !on then begin
    let b = current () in
    if sample_window q then begin
      b.armed <- true;
      b.sampled <- b.sampled + 1;
      let s = ensure_scratch b 4 in
      s.(0) <- (4 lsl 3) lor 0;
      s.(1) <- q;
      s.(2) <- eval_from;
      s.(3) <- window_start;
      append b s 4
    end
    else begin
      b.armed <- false;
      b.skipped <- b.skipped + 1
    end
  end

let put_binds b s off binds =
  List.iteri
    (fun i (x, t) ->
      s.(off + (2 * i)) <- str_id b x lsl 1;
      s.(off + (2 * i) + 1) <- Intern.id_of_term b.intern t)
    binds

let record_transition ~kind ~rule ~fluent ~value ~time ~binds =
  if !on then begin
    let b = current () in
    if b.armed then begin
      let binds = sort_binds binds in
      let n = List.length binds in
      let len = 6 + (2 * n) in
      let s = ensure_scratch b len in
      s.(0) <- (len lsl 3) lor 1;
      s.(1) <- kind_bit kind;
      s.(2) <- Intern.fvp_of_terms b.intern fluent value;
      s.(3) <- time;
      s.(4) <- str_id b rule;
      s.(5) <- n;
      put_binds b s 6 binds;
      append b s len
    end
  end

let record_pattern ~rule ~pattern ~fluent ~value ~time =
  if !on then begin
    let b = current () in
    if b.armed then begin
      let s = ensure_scratch b 6 in
      s.(0) <- (6 lsl 3) lor 2;
      s.(1) <- kind_bit Term;
      s.(2) <- Intern.fvp_of_terms b.intern fluent value;
      s.(3) <- time;
      s.(4) <- str_id b rule;
      s.(5) <- Intern.id_of_term b.intern pattern;
      append b s 6
    end
  end

let record_carry ~origin ~fluent ~value ~time =
  if !on then begin
    let b = current () in
    if b.armed then begin
      let s = ensure_scratch b 5 in
      s.(0) <- (5 lsl 3) lor 3;
      s.(1) <- kind_bit Init;
      s.(2) <- Intern.fvp_of_terms b.intern fluent value;
      s.(3) <- time;
      s.(4) <- str_id b origin;
      append b s 5
    end
  end

let put_spans s off spans =
  List.iteri
    (fun i (a, z) ->
      s.(off + (2 * i)) <- a;
      s.(off + (2 * i) + 1) <- z)
    spans

let record_input ~fluent ~value ~spans =
  if !on then begin
    let b = current () in
    if b.armed then begin
      let n = List.length spans in
      let len = 3 + (2 * n) in
      let s = ensure_scratch b len in
      s.(0) <- (len lsl 3) lor 5;
      s.(1) <- Intern.fvp_of_terms b.intern fluent value;
      s.(2) <- n;
      put_spans s 3 spans;
      append b s len
    end
  end

let record_derived ~fluent ~value ~rule ~spans ~binds ~steps =
  if !on then begin
    let b = current () in
    if b.armed then begin
      let binds = sort_binds binds in
      let nb = List.length binds in
      let nsp = List.length spans in
      let step_words =
        List.fold_left (fun acc (_, sp) -> acc + 2 + (2 * List.length sp)) 0 steps
      in
      let len = 4 + (2 * nb) + 1 + (2 * nsp) + 1 + step_words in
      let s = ensure_scratch b len in
      s.(0) <- (len lsl 3) lor 4;
      s.(1) <- Intern.fvp_of_terms b.intern fluent value;
      s.(2) <- str_id b rule;
      s.(3) <- nb;
      put_binds b s 4 binds;
      let off = 4 + (2 * nb) in
      s.(off) <- nsp;
      put_spans s (off + 1) spans;
      let off = ref (off + 1 + (2 * nsp)) in
      s.(!off) <- List.length steps;
      incr off;
      List.iter
        (fun (idx, sp) ->
          s.(!off) <- idx;
          s.(!off + 1) <- List.length sp;
          put_spans s (!off + 2) sp;
          off := !off + 2 + (2 * List.length sp))
        steps;
      append b s len
    end
  end

(* --- compiled-path sink --- *)

let sink ?reuse ~intern () =
  if not !on then None
  else begin
    let b = current () in
    if not b.armed then None
    else
      match reuse with
      | Some sk when sk.sk_buf == b && sk.sk_src == intern -> reuse
      | _ -> Some { sk_buf = b; sk_src = intern; sk_terms = [||]; sk_fvps = [||] }
  end

let sink_string sk s = str_id sk.sk_buf s

let grow_memo a n =
  let m = Array.make (max n (max 64 (2 * Array.length a))) (-1) in
  Array.blit a 0 m 0 (Array.length a);
  m

let sink_term sk id =
  if id >= Array.length sk.sk_terms then sk.sk_terms <- grow_memo sk.sk_terms (id + 1);
  let v = sk.sk_terms.(id) in
  if v >= 0 then v
  else begin
    let v = Intern.id_of_term sk.sk_buf.intern (Intern.term_of_id sk.sk_src id) in
    sk.sk_terms.(id) <- v;
    v
  end

let sink_fvp sk id =
  if id >= Array.length sk.sk_fvps then sk.sk_fvps <- grow_memo sk.sk_fvps (id + 1);
  let v = sk.sk_fvps.(id) in
  if v >= 0 then v
  else begin
    let fluent = sink_term sk (Intern.fvp_fluent_id sk.sk_src id) in
    let value = sink_term sk (Intern.fvp_value_id sk.sk_src id) in
    let v = Intern.fvp_id sk.sk_buf.intern ~fluent ~value in
    sk.sk_fvps.(id) <- v;
    v
  end

(* The compiled sink is the recorder's hot path — one call per emitted
   transition — so it writes its words straight into the ring instead
   of staging them in scratch and blitting. *)
let sink_transition_ids sk ~kind ~rule ~fvp ~time ~binds =
  let b = sk.sk_buf in
  let n = Array.length binds / 2 in
  let len = 6 + (2 * n) in
  let base = reserve b len in
  if base >= 0 then begin
    b.records <- b.records + 1;
    let data = b.data in
    let cap = Array.length data in
    if base + len <= cap then begin
      (* in-line record: every index is provably inside the ring, so
         the writes are straight-line and unchecked *)
      Array.unsafe_set data base ((len lsl 3) lor 1);
      Array.unsafe_set data (base + 1) (kind_bit kind);
      Array.unsafe_set data (base + 2) (sink_fvp sk fvp);
      Array.unsafe_set data (base + 3) time;
      Array.unsafe_set data (base + 4) rule;
      Array.unsafe_set data (base + 5) n;
      let off = base + 6 in
      for i = 0 to n - 1 do
        let key = Array.unsafe_get binds (2 * i) in
        let v = Array.unsafe_get binds ((2 * i) + 1) in
        Array.unsafe_set data (off + (2 * i)) key;
        Array.unsafe_set data
          (off + (2 * i) + 1)
          (if key land 1 = 1 then v else sink_term sk v)
      done
    end
    else begin
      (* the record wraps the ring end: rare, mod-indexed *)
      let put i v = data.((base + i) mod cap) <- v in
      put 0 ((len lsl 3) lor 1);
      put 1 (kind_bit kind);
      put 2 (sink_fvp sk fvp);
      put 3 time;
      put 4 rule;
      put 5 n;
      for i = 0 to n - 1 do
        let key = binds.(2 * i) in
        put (6 + (2 * i)) key;
        put
          (6 + (2 * i) + 1)
          (if key land 1 = 1 then binds.((2 * i) + 1) else sink_term sk binds.((2 * i) + 1))
      done
    end
  end

(* --- reading back --- *)

(* Walks the ring record by record. [f] receives an absolute-offset
   reader and the record's tag; it must not retain the reader. *)
let iter_records b f =
  if b.used > 0 then begin
    let cap = Array.length b.data in
    let pos = ref b.head and remaining = ref b.used in
    while !remaining > 0 do
      let base = !pos in
      let get i = b.data.((base + i) mod cap) in
      let hdr = get 0 in
      let len = hdr lsr 3 and tag = hdr land 7 in
      f ~get ~tag ~len;
      pos := (base + len) mod cap;
      remaining := !remaining - len
    done
  end

let decode_binds b ~get ~off n =
  let s = ref Subst.empty in
  for i = 0 to n - 1 do
    let key = get (off + (2 * i)) and v = get (off + (2 * i) + 1) in
    let x = b.strs.s_arr.(key lsr 1) in
    let t = if key land 1 = 1 then Term.Int v else Intern.term_of_id b.intern v in
    s := Subst.bind x t !s
  done;
  !s

let decode_spans ~get ~off n = List.init n (fun i -> (get (off + (2 * i)), get (off + (2 * i) + 1)))

let events ?(rules = []) () =
  let b = global in
  let lookup =
    if rules = [] then fun _ -> None
    else begin
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (label, r) -> if not (Hashtbl.mem tbl label) then Hashtbl.add tbl label r)
        rules;
      Hashtbl.find_opt tbl
    end
  in
  let lbl i = b.strs.s_arr.(i) in
  let fvp id = Intern.fvp_terms b.intern id in
  let out = ref [] in
  iter_records b (fun ~get ~tag ~len:_ ->
      let ev =
        match tag with
        | 0 -> Query { q = get 1; eval_from = get 2; window_start = get 3 }
        | 1 ->
          let kind = kind_of_bit (get 1) in
          let fluent, value = fvp (get 2) in
          let time = get 3 in
          let rule = lbl (get 4) in
          let n = get 5 in
          let steps =
            match lookup rule with
            | None -> []
            | Some r ->
              let s = decode_binds b ~get ~off:6 n in
              List.mapi
                (fun i lit ->
                  {
                    index = i + 1;
                    literal = Term.to_string lit;
                    grounded = Term.to_string (Subst.apply s lit);
                  })
                r.Ast.body
          in
          Transition { fluent; value; time; kind; source = Rule { rule; steps } }
        | 2 ->
          let kind = kind_of_bit (get 1) in
          let fluent, value = fvp (get 2) in
          let time = get 3 in
          let rule = lbl (get 4) in
          let pattern = Term.to_string (Intern.term_of_id b.intern (get 5)) in
          Transition { fluent; value; time; kind; source = Pattern { rule; pattern } }
        | 3 ->
          let kind = kind_of_bit (get 1) in
          let fluent, value = fvp (get 2) in
          let time = get 3 in
          Transition { fluent; value; time; kind; source = Carry { origin = lbl (get 4) } }
        | 4 ->
          let fluent, value = fvp (get 1) in
          let rule = lbl (get 2) in
          let nb = get 3 in
          let off = 4 + (2 * nb) in
          let nsp = get off in
          let spans = decode_spans ~get ~off:(off + 1) nsp in
          let off = ref (off + 1 + (2 * nsp)) in
          let nsteps = get !off in
          incr off;
          let raw_steps =
            List.init nsteps (fun _ ->
                let idx = get !off in
                let n = get (!off + 1) in
                let sp = decode_spans ~get ~off:(!off + 2) n in
                off := !off + 2 + (2 * n);
                (idx, sp))
          in
          let steps =
            match lookup rule with
            | None -> []
            | Some r ->
              let s = decode_binds b ~get ~off:4 nb in
              let body = Array.of_list r.Ast.body in
              List.filter_map
                (fun (idx, sp) ->
                  if idx < 1 || idx > Array.length body then None
                  else begin
                    let lit = body.(idx - 1) in
                    Some
                      {
                        index = idx;
                        literal = Term.to_string lit;
                        grounded =
                          Printf.sprintf "%s -> %s"
                            (Term.to_string (Subst.apply s lit))
                            (Interval.to_string (Interval.of_list sp));
                      }
                  end)
                raw_steps
          in
          Derived { fluent; value; rule; spans; steps }
        | 5 ->
          let fluent, value = fvp (get 1) in
          let spans = decode_spans ~get ~off:3 (get 2) in
          Input { fluent; value; spans }
        | _ -> assert false
      in
      out := ev :: !out);
  List.rev !out

(* --- stats and telemetry --- *)

type stats = {
  records : int;
  evicted : int;
  windows_sampled : int;
  windows_skipped : int;
  retained_words : int;
}

let stats () =
  {
    records = global.records;
    evicted = global.evicted;
    windows_sampled = global.sampled;
    windows_skipped = global.skipped;
    retained_words = global.used;
  }

let m_records = Telemetry.Metrics.counter "derivation.records"
let m_evicted = Telemetry.Metrics.counter "derivation.evicted"
let m_sampled = Telemetry.Metrics.counter "derivation.windows.sampled"
let m_skipped = Telemetry.Metrics.counter "derivation.windows.skipped"
let g_retained = Telemetry.Metrics.gauge "derivation.retained_bytes"

(* Published counters are process-cumulative; the recorder's own
   counters restart at [reset], so publication tracks deltas. *)
let pub = ref (0, 0, 0, 0)

let reset_published () = pub := (0, 0, 0, 0)

let publish_metrics () =
  if Telemetry.Metrics.is_enabled () then begin
    let s = stats () in
    let pr, pe, psa, psk = !pub in
    Telemetry.Metrics.incr m_records ~by:(max 0 (s.records - pr));
    Telemetry.Metrics.incr m_evicted ~by:(max 0 (s.evicted - pe));
    Telemetry.Metrics.incr m_sampled ~by:(max 0 (s.windows_sampled - psa));
    Telemetry.Metrics.incr m_skipped ~by:(max 0 (s.windows_skipped - psk));
    pub := (s.records, s.evicted, s.windows_sampled, s.windows_skipped);
    Telemetry.Metrics.set g_retained (float_of_int (s.retained_words * (Sys.word_size / 8)))
  end

let reset () =
  clear global;
  reset_published ()

(* --- worker buffers --- *)

(* Transfers every record of [l] into the global ring, translating
   buffer-local term/FVP/string ids through memo tables. Counters move
   over wholesale: [records] already counted each append locally. *)
let merge_local l =
  Mutex.protect global_mutex (fun () ->
      let xterm =
        let memo = Array.make (max 1 (Intern.term_count l.intern)) (-1) in
        fun id ->
          if memo.(id) >= 0 then memo.(id)
          else begin
            let v = Intern.id_of_term global.intern (Intern.term_of_id l.intern id) in
            memo.(id) <- v;
            v
          end
      in
      let xfvp =
        let memo = Array.make (max 1 (Intern.fvp_count l.intern)) (-1) in
        fun id ->
          if memo.(id) >= 0 then memo.(id)
          else begin
            let fluent = xterm (Intern.fvp_fluent_id l.intern id) in
            let value = xterm (Intern.fvp_value_id l.intern id) in
            let v = Intern.fvp_id global.intern ~fluent ~value in
            memo.(id) <- v;
            v
          end
      in
      let xstr =
        let memo = Array.make (max 1 l.strs.s_len) (-1) in
        fun i ->
          if memo.(i) >= 0 then memo.(i)
          else begin
            let v = str_id global l.strs.s_arr.(i) in
            memo.(i) <- v;
            v
          end
      in
      let xkey k = (xstr (k lsr 1) lsl 1) lor (k land 1) in
      iter_records l (fun ~get ~tag ~len ->
          let s = ensure_scratch global len in
          for i = 0 to len - 1 do
            s.(i) <- get i
          done;
          (match tag with
           | 0 -> ()
           | 1 ->
             s.(2) <- xfvp s.(2);
             s.(4) <- xstr s.(4);
             for i = 0 to s.(5) - 1 do
               let k = s.(6 + (2 * i)) in
               s.(6 + (2 * i)) <- xkey k;
               if k land 1 = 0 then s.(6 + (2 * i) + 1) <- xterm s.(6 + (2 * i) + 1)
             done
           | 2 ->
             s.(2) <- xfvp s.(2);
             s.(4) <- xstr s.(4);
             s.(5) <- xterm s.(5)
           | 3 ->
             s.(2) <- xfvp s.(2);
             s.(4) <- xstr s.(4)
           | 4 ->
             s.(1) <- xfvp s.(1);
             s.(2) <- xstr s.(2);
             for i = 0 to s.(3) - 1 do
               let k = s.(4 + (2 * i)) in
               s.(4 + (2 * i)) <- xkey k;
               if k land 1 = 0 then s.(4 + (2 * i) + 1) <- xterm s.(4 + (2 * i) + 1)
             done
           | 5 -> s.(1) <- xfvp s.(1)
           | _ -> assert false);
          append_gen ~count:false global s len);
      global.records <- global.records + l.records;
      global.evicted <- global.evicted + l.evicted;
      global.sampled <- global.sampled + l.sampled;
      global.skipped <- global.skipped + l.skipped)

let with_local f =
  let prev = Domain.DLS.get local_key in
  let l = fresh () in
  Domain.DLS.set local_key (Some l);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set local_key prev;
      merge_local l;
      (* A sink kept by a compiled program may still point here; it is
         stale, and must not pin the ring. *)
      l.data <- [||])
    f
