type value = Bool of bool | Int of int | Float of float | Str of string

type cell = {
  id : int;  (* 1-based; doubles as the span token *)
  parent : int;  (* 0 = root *)
  name : string;
  tid : int;  (* logical track: 0 = main, workers use their shard/domain id *)
  start_ns : int64;
  mutable stop_ns : int64;  (* negative while the span is open *)
  mutable args : (string * value) list;
}

type span = int

let null_span = 0
let on = ref false
let max_spans = ref 1_000_000

(* Completed and open spans, in start order: a growable array so the
   enabled path costs one bounds check and one write per event. Each
   domain records into its own recorder — the process-global one for the
   main domain, a private one (via [Domain.DLS]) inside [with_local] —
   so concurrent domains never touch the same buffer. *)
type recorder = {
  mutable cells : cell array;
  mutable count : int;
  mutable stack : int list;
  mutable dropped : int;
  rec_tid : int;
}

let fresh_recorder tid = { cells = [||]; count = 0; stack = []; dropped = 0; rec_tid = tid }
let global = fresh_recorder 0
let global_mutex = Mutex.create ()
let local_key : recorder option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = match Domain.DLS.get local_key with Some r -> r | None -> global

let enable () = on := true
let disable () = on := false
let is_enabled () = !on

let reset () =
  global.cells <- [||];
  global.count <- 0;
  global.stack <- [];
  global.dropped <- 0

let set_max_spans n = max_spans := max 0 n

let dummy =
  { id = 0; parent = 0; name = ""; tid = 0; start_ns = 0L; stop_ns = 0L; args = [] }

let grow r =
  let cap = Array.length r.cells in
  let fresh = Array.make (if cap = 0 then 1024 else 2 * cap) dummy in
  Array.blit r.cells 0 fresh 0 cap;
  r.cells <- fresh

let start ?(args = []) name =
  if not !on then null_span
  else begin
    let r = current () in
    if r.count >= !max_spans then begin
      r.dropped <- r.dropped + 1;
      null_span
    end
    else begin
      if r.count >= Array.length r.cells then grow r;
      let id = r.count + 1 in
      let parent = match r.stack with [] -> 0 | p :: _ -> p in
      r.cells.(r.count) <-
        {
          id;
          parent;
          name;
          tid = r.rec_tid;
          start_ns = Clock.now_ns ();
          stop_ns = -1L;
          args;
        };
      r.count <- r.count + 1;
      r.stack <- id :: r.stack;
      id
    end
  end

let finish ?(args = []) span =
  let r = current () in
  if span > 0 && span <= r.count then begin
    let c = r.cells.(span - 1) in
    if c.stop_ns < 0L then c.stop_ns <- Clock.now_ns ();
    if args <> [] then c.args <- c.args @ args;
    (* Unwind to this span; an out-of-order finish closes the span but
       leaves well-nested ancestors alone. *)
    let rec pop = function
      | [] -> []
      | x :: rest when x = span -> rest
      | _ :: rest -> pop rest
    in
    if List.mem span r.stack then r.stack <- pop r.stack
  end

let with_span ?args name f =
  if not !on then f ()
  else begin
    let sp = start ?args name in
    match f () with
    | v ->
      finish sp;
      v
    | exception e ->
      finish sp;
      raise e
  end

(* Append a local recorder's spans to the global buffer, remapping ids
   (parents stay within the merged batch; local roots remain roots).
   Open local spans are closed at merge time — the recorder is gone
   afterwards, so nothing could ever finish them. *)
let merge_local l =
  Mutex.protect global_mutex (fun () ->
      let remap = Hashtbl.create (max 16 l.count) in
      for i = 0 to l.count - 1 do
        let c = l.cells.(i) in
        if global.count >= !max_spans then global.dropped <- global.dropped + 1
        else begin
          if global.count >= Array.length global.cells then grow global;
          let id = global.count + 1 in
          Hashtbl.replace remap c.id id;
          let parent =
            if c.parent = 0 then 0 else Option.value ~default:0 (Hashtbl.find_opt remap c.parent)
          in
          let stop_ns = if c.stop_ns < 0L then Clock.now_ns () else c.stop_ns in
          global.cells.(global.count) <- { c with id; parent; stop_ns };
          global.count <- global.count + 1
        end
      done;
      global.dropped <- global.dropped + l.dropped)

let with_local ~tid f =
  let prev = Domain.DLS.get local_key in
  let l = fresh_recorder tid in
  Domain.DLS.set local_key (Some l);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set local_key prev;
      merge_local l)
    f

(* --- export --- *)

type info = {
  span_id : int;
  span_parent : int;
  span_name : string;
  span_tid : int;
  t_ns : int64;  (* relative to the earliest recorded span *)
  dur_ns : int64;
  span_args : (string * value) list;
}

let dropped_spans () = global.dropped

let infos () =
  if global.count = 0 then []
  else begin
    (* Merged worker spans sit after the main domain's spans but may have
       started earlier; anchor at the earliest start, not cell 0. *)
    let t0 = ref global.cells.(0).start_ns in
    for i = 1 to global.count - 1 do
      if global.cells.(i).start_ns < !t0 then t0 := global.cells.(i).start_ns
    done;
    List.init global.count (fun i ->
        let c = global.cells.(i) in
        let stop = if c.stop_ns < 0L then Clock.now_ns () else c.stop_ns in
        {
          span_id = c.id;
          span_parent = c.parent;
          span_name = c.name;
          span_tid = c.tid;
          t_ns = Int64.sub c.start_ns !t0;
          dur_ns = Int64.sub stop c.start_ns;
          span_args = c.args;
        })
  end

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int n -> Json.Num (float_of_int n)
  | Float x -> Json.Num x
  | Str s -> Json.Str s

let args_to_json args = Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) args)

(* Chrome trace_event format ("X" complete events, microsecond
   timestamps), loadable in chrome://tracing and Perfetto. Worker spans
   carry their shard/domain id as the tid, so each worker gets its own
   track in the viewer. *)
let to_chrome () =
  let events =
    List.map
      (fun i ->
        Json.Obj
          [
            ("name", Json.Str i.span_name);
            ("cat", Json.Str "adg");
            ("ph", Json.Str "X");
            ("ts", Json.Num (Clock.ns_to_us i.t_ns));
            ("dur", Json.Num (Clock.ns_to_us i.dur_ns));
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int i.span_tid));
            ("args", args_to_json i.span_args);
          ])
      (infos ())
  in
  let meta =
    if global.dropped = 0 then []
    else [ ("adg_dropped_spans", Json.Num (float_of_int global.dropped)) ]
  in
  Json.Obj ((("traceEvents", Json.List events) :: ("displayTimeUnit", Json.Str "ms") :: meta))

let value_to_string = function
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s

let to_text () =
  let all = infos () in
  let buf = Buffer.create 1024 in
  let children = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace children i.span_parent
        (i :: Option.value ~default:[] (Hashtbl.find_opt children i.span_parent)))
    (List.rev all);
  let rec render depth i =
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %12.3f ms%s\n" (String.make (2 * depth) ' ')
         (max 1 (40 - (2 * depth)))
         i.span_name
         (Int64.to_float i.dur_ns /. 1e6)
         (match i.span_args with
          | [] -> ""
          | args ->
            "  {" ^ String.concat ", "
              (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) args) ^ "}"));
    List.iter (render (depth + 1)) (Option.value ~default:[] (Hashtbl.find_opt children i.span_id))
  in
  List.iter (render 0) (Option.value ~default:[] (Hashtbl.find_opt children 0));
  if global.dropped > 0 then
    Buffer.add_string buf (Printf.sprintf "(%d spans dropped)\n" global.dropped);
  Buffer.contents buf

let write_chrome file = Json.write_file ~indent:false file (to_chrome ())
