module Ast = Rtec.Ast
module Term = Rtec.Term
module Interval = Rtec.Interval
module Engine = Rtec.Engine
module Derivation = Rtec.Derivation
module Json = Telemetry.Json

module FvpMap = Map.Make (struct
  type t = Engine.fvp

  let compare = Engine.compare_fvp
end)

let fvp_to_string (f, v) = Term.to_string f ^ "=" ^ Term.to_string v
let ind_to_string (name, arity) = Printf.sprintf "%s/%d" name arity

module Store = struct
  type transition = {
    time : int;
    kind : Derivation.transition_kind;
    source : Derivation.source;
  }

  type derived = { rule : string; spans : (int * int) list; steps : Derivation.step list }

  type entry = { mutable trans : transition list; mutable sd : derived list }

  type t = { entries : entry FvpMap.t }

  let source_label = function
    | Derivation.Rule { rule; _ } -> Some rule
    | Derivation.Pattern { rule; _ } -> Some rule
    | Derivation.Carry _ -> None

  let of_events events =
    let entries = ref FvpMap.empty in
    let entry fv =
      match FvpMap.find_opt fv !entries with
      | Some e -> e
      | None ->
        let e = { trans = []; sd = [] } in
        entries := FvpMap.add fv e !entries;
        e
    in
    List.iter
      (fun ev ->
        match ev with
        | Derivation.Query _ | Derivation.Input _ -> ()
        | Derivation.Transition { fluent; value; time; kind; source } ->
          let e = entry (fluent, value) in
          e.trans <- { time; kind; source } :: e.trans
        | Derivation.Derived { fluent; value; rule; spans; steps } ->
          let e = entry (fluent, value) in
          e.sd <- { rule; spans; steps } :: e.sd)
      events;
    (* Overlapping windows re-derive the same transitions: deduplicate by
       (time, kind, rule), keeping the earliest-recorded occurrence (the
       one with the derivation steps of the window that first saw it). *)
    let dedup trans =
      let seen = Hashtbl.create 64 in
      List.filter
        (fun t ->
          let key =
            ( t.time,
              (match t.kind with Derivation.Init -> 0 | Derivation.Term -> 1),
              Option.value ~default:"" (source_label t.source) )
          in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        trans
    in
    entries :=
      FvpMap.map
        (fun e ->
          {
            trans =
              List.stable_sort
                (fun a b -> compare a.time b.time)
                (dedup (List.rev e.trans));
            sd = List.rev e.sd;
          })
        !entries;
    { entries = !entries }

  let fvps t = FvpMap.fold (fun fv _ acc -> fv :: acc) t.entries [] |> List.rev
  let transitions t fv =
    match FvpMap.find_opt fv t.entries with None -> [] | Some e -> e.trans

  let filtered t fv kind =
    transitions t fv
    |> List.filter_map (fun tr ->
           if tr.kind = kind then
             match source_label tr.source with
             | Some rule -> Some (tr.time, rule)
             | None -> None
           else None)

  let inits t fv = filtered t fv Derivation.Init
  let terms t fv = filtered t fv Derivation.Term
  let derived t fv = match FvpMap.find_opt fv t.entries with None -> [] | Some e -> e.sd
end

type run = {
  result : Engine.result;
  stats : Runtime.stats;
  events : Derivation.event list Lazy.t;
  store : Store.t;
}

let recognise ?(config = Runtime.default) ?(sampling = Derivation.Always) ~event_description
    ~knowledge ~stream () =
  let was = Derivation.is_enabled () in
  Derivation.reset ();
  Derivation.set_sampling sampling;
  Derivation.enable ();
  Fun.protect
    ~finally:(fun () ->
      Derivation.set_sampling Derivation.Always;
      if not was then Derivation.disable ())
    (fun () ->
      match Runtime.run ~config ~event_description ~knowledge ~stream () with
      | Error e -> Result.Error e
      | Ok (result, stats) ->
        (* The store indexes the cheap steps-free decode; full proof
           trees (grounded per-condition trails) are reconstructed only
           if [events] is forced — and must be forced before the next
           [recognise] resets the recorder. *)
        let rules = Engine.labelled_rules event_description in
        let events = lazy (Derivation.events ~rules ()) in
        Ok { result; stats; events; store = Store.of_events (Derivation.events ()) })

module Diff = struct
  type kind = Fp | Fn

  type condition = { index : int; text : string; grounded : string }

  type attribution = {
    activity : string * int;
    fvp : Engine.fvp;
    kind : kind;
    span : int * int;
    points : int;
    anchor : int;
    rule : string;
    condition : condition option;
    note : string;
  }

  type row = {
    row_activity : string * int;
    row_rule : string;
    row_condition : condition option;
    fp_points : int;
    fn_points : int;
    fp_spans : int;
    fn_spans : int;
  }

  type activity_totals = {
    act : string * int;
    matched_points : int;
    act_fp_points : int;
    act_fn_points : int;
  }

  type report = {
    attributions : attribution list;
    rows : row list;
    activities : activity_totals list;
    total_matched : int;
    total_fp : int;
    total_fn : int;
  }

  (* --- twin matching: pair a rule with its counterpart on the other side --- *)

  let ordinal_of label =
    match String.rindex_opt label '#' with
    | None -> None
    | Some i -> int_of_string_opt (String.sub label (i + 1) (String.length label - i - 1))

  let same_kind a b =
    match (Ast.kind_of_rule a, Ast.kind_of_rule b) with
    | Some (Ast.Initiated _), Some (Ast.Initiated _)
    | Some (Ast.Terminated _), Some (Ast.Terminated _)
    | Some (Ast.Holds_for _), Some (Ast.Holds_for _) ->
      true
    | _ -> false

  let structural_score (a : Ast.rule) (b : Ast.rule) =
    let rec go acc xs ys =
      match (xs, ys) with
      | x :: xs, y :: ys -> go (if Term.equal x y then acc + 1 else acc) xs ys
      | _ -> acc
    in
    go 0 a.Ast.body b.Ast.body

  (* The counterpart of [rule] (labelled [label]) among the other side's
     rules for the same indicator and of the same kind: an identical label
     wins, then the same "#i" ordinal, then the structurally closest body. *)
  let twin diag ind ~label ~rule =
    let candidates =
      Engine.Diagnosis.rules_for diag ind |> List.filter (fun (_, r) -> same_kind r rule)
    in
    match List.find_opt (fun (l, _) -> String.equal l label) candidates with
    | Some c -> Some c
    | None -> (
      let by_ordinal =
        match ordinal_of label with
        | None -> None
        | Some o -> List.find_opt (fun (l, _) -> ordinal_of l = Some o) candidates
      in
      match by_ordinal with
      | Some c -> Some c
      | None ->
        List.fold_left
          (fun best ((_, r) as c) ->
            let s = structural_score rule r in
            match best with
            | Some (bs, _) when bs >= s -> best
            | _ -> Some (s, c))
          None candidates
        |> Option.map snd)

  let find_rule diag ind label =
    List.find_opt (fun (l, _) -> String.equal l label) (Engine.Diagnosis.rules_for diag ind)

  type fluent_shape = Shape_simple | Shape_sd | Shape_none

  let shape diag ind =
    match Engine.Diagnosis.rules_for diag ind with
    | [] -> Shape_none
    | (_, r) :: _ -> (
      match Ast.kind_of_rule r with
      | Some (Ast.Initiated _ | Ast.Terminated _) -> Shape_simple
      | Some (Ast.Holds_for _) -> Shape_sd
      | None -> Shape_none)

  (* --- attribution --- *)

  type side = { s_run : run; s_diag : Engine.Diagnosis.t }

  let condition_of_outcome = function
    | Engine.Diagnosis.Failing { index; literal; grounded } ->
      Some { index; text = Term.to_string literal; grounded = Term.to_string grounded }
    | _ -> None

  let latest_before entries ~before =
    List.fold_left
      (fun best ((t, _) as e) ->
        if t < before then
          match best with Some (bt, _) when bt >= t -> best | _ -> Some e
        else best)
      None entries

  let latest_in entries ~lo ~hi =
    List.fold_left
      (fun best ((t, _) as e) ->
        if t >= lo && t <= hi then
          match best with Some (bt, _) when bt >= t -> best | _ -> Some e
        else best)
      None entries

  let mk ~activity ~fvp ~kind ~span:((s, e) as span) ~anchor ~rule ~condition ~note =
    { activity; fvp; kind; span; points = max 0 (e - s); anchor; rule; condition; note }

  (* FP on a simple fluent: the generated description initiated the FVP
     and nothing terminated it across [s]. Anchor at the latest generated
     initiation, replay the gold twin rule there: its first failing
     condition is what the generated rule dropped or weakened. If the gold
     twin also initiates, the divergence is a missing termination: find
     the gold termination that closed the gold interval before [s] and
     replay its generated twin. *)
  let simple_fp ~gold ~gen ~activity ~fvp (s, e) =
    let mk = mk ~activity ~fvp ~kind:Fp ~span:(s, e) in
    match latest_before (Store.inits gen.s_run.store fvp) ~before:s with
    | None ->
      mk ~anchor:s ~rule:"?" ~condition:None
        ~note:"no recorded generated initiation before the span"
    | Some (t0, glabel) -> (
      match find_rule gen.s_diag activity glabel with
      | None ->
        mk ~anchor:t0 ~rule:glabel ~condition:None
          ~note:"initiating rule not found in the generated description"
      | Some (_, grule) -> (
        match twin gold.s_diag activity ~label:glabel ~rule:grule with
        | None ->
          mk ~anchor:t0 ~rule:glabel ~condition:None
            ~note:
              (Printf.sprintf "initiated by %s at %d; gold has no counterpart rule" glabel t0)
        | Some (gold_label, gold_rule) -> (
          match Engine.Diagnosis.rule_at gold.s_diag ~rule:gold_rule ~fvp ~time:t0 with
          | Engine.Diagnosis.Failing _ as o ->
            let c = condition_of_outcome o in
            mk ~anchor:t0 ~rule:glabel ~condition:c
              ~note:
                (Printf.sprintf "initiated by %s at %d; gold %s fails condition #%d there"
                   glabel t0 gold_label
                   (match c with Some c -> c.index | None -> 0))
          | Engine.Diagnosis.Derivable -> (
            (* gold initiated too: a gold termination must have closed the
               interval before [s] that the generated description missed *)
            match latest_in (Store.terms gold.s_run.store fvp) ~lo:t0 ~hi:(s - 1) with
            | None ->
              mk ~anchor:t0 ~rule:glabel ~condition:None
                ~note:"gold twin also initiates and records no closing termination"
            | Some (t1, gold_t_label) -> (
              match find_rule gold.s_diag activity gold_t_label with
              | None ->
                mk ~anchor:t1 ~rule:("missing:" ^ gold_t_label) ~condition:None
                  ~note:"gold termination rule not found"
              | Some (_, gold_t_rule) -> (
                match twin gen.s_diag activity ~label:gold_t_label ~rule:gold_t_rule with
                | None ->
                  mk ~anchor:t1 ~rule:("missing:" ^ gold_t_label) ~condition:None
                    ~note:
                      (Printf.sprintf
                         "gold terminates at %d via %s; generated has no counterpart" t1
                         gold_t_label)
                | Some (gen_t_label, gen_t_rule) -> (
                  match
                    Engine.Diagnosis.rule_at gen.s_diag ~rule:gen_t_rule ~fvp ~time:t1
                  with
                  | Engine.Diagnosis.Failing _ as o ->
                    let c = condition_of_outcome o in
                    mk ~anchor:t1 ~rule:gen_t_label ~condition:c
                      ~note:
                        (Printf.sprintf
                           "gold terminates at %d via %s; generated %s fails condition #%d"
                           t1 gold_t_label gen_t_label
                           (match c with Some c -> c.index | None -> 0))
                  | _ ->
                    mk ~anchor:t1 ~rule:gen_t_label ~condition:None
                      ~note:
                        (Printf.sprintf
                           "gold terminates at %d via %s; generated twin did not fire" t1
                           gold_t_label)))))
          | Engine.Diagnosis.Head_mismatch | Engine.Diagnosis.Unsupported _ ->
            mk ~anchor:t0 ~rule:glabel ~condition:None
              ~note:
                (Printf.sprintf "initiated by %s at %d; gold %s not comparable" glabel t0
                   gold_label))))

  (* FN on a simple fluent: gold initiated and held, the generated
     description didn't. Anchor at the gold initiation, replay the
     generated twin rule there; if the twin initiates too, the divergence
     is a spurious generated termination inside the span's lead-in. *)
  let simple_fn ~gold ~gen ~activity ~fvp (s, e) =
    let mk = mk ~activity ~fvp ~kind:Fn ~span:(s, e) in
    match latest_before (Store.inits gold.s_run.store fvp) ~before:s with
    | None ->
      mk ~anchor:s ~rule:"?" ~condition:None
        ~note:"no recorded gold initiation before the span"
    | Some (t0, gold_label) -> (
      match find_rule gold.s_diag activity gold_label with
      | None ->
        mk ~anchor:t0 ~rule:gold_label ~condition:None
          ~note:"gold initiating rule not found"
      | Some (_, gold_rule) -> (
        match twin gen.s_diag activity ~label:gold_label ~rule:gold_rule with
        | None ->
          mk ~anchor:t0 ~rule:("missing:" ^ gold_label) ~condition:None
            ~note:
              (Printf.sprintf "gold initiates at %d via %s; generated has no counterpart"
                 t0 gold_label)
        | Some (gen_label, gen_rule) -> (
          match Engine.Diagnosis.rule_at gen.s_diag ~rule:gen_rule ~fvp ~time:t0 with
          | Engine.Diagnosis.Failing _ as o ->
            let c = condition_of_outcome o in
            mk ~anchor:t0 ~rule:gen_label ~condition:c
              ~note:
                (Printf.sprintf
                   "gold initiates at %d via %s; generated %s fails condition #%d there"
                   t0 gold_label gen_label
                   (match c with Some c -> c.index | None -> 0))
          | Engine.Diagnosis.Derivable -> (
            match latest_in (Store.terms gen.s_run.store fvp) ~lo:t0 ~hi:(s - 1) with
            | None ->
              mk ~anchor:t0 ~rule:gen_label ~condition:None
                ~note:"generated twin also initiates; no spurious termination recorded"
            | Some (t1, gen_t_label) -> (
              match find_rule gen.s_diag activity gen_t_label with
              | None ->
                mk ~anchor:t1 ~rule:gen_t_label ~condition:None
                  ~note:"generated termination rule not found"
              | Some (_, gen_t_rule) -> (
                match twin gold.s_diag activity ~label:gen_t_label ~rule:gen_t_rule with
                | None ->
                  mk ~anchor:t1 ~rule:gen_t_label ~condition:None
                    ~note:
                      (Printf.sprintf
                         "generated terminates at %d via %s; gold has no counterpart" t1
                         gen_t_label)
                | Some (gold_t_label, gold_t_rule) -> (
                  match
                    Engine.Diagnosis.rule_at gold.s_diag ~rule:gold_t_rule ~fvp ~time:t1
                  with
                  | Engine.Diagnosis.Failing _ as o ->
                    let c = condition_of_outcome o in
                    mk ~anchor:t1 ~rule:gen_t_label ~condition:c
                      ~note:
                        (Printf.sprintf
                           "generated terminates at %d via %s; gold %s fails condition \
                            #%d there"
                           t1 gen_t_label gold_t_label
                           (match c with Some c -> c.index | None -> 0))
                  | _ ->
                    mk ~anchor:t1 ~rule:gen_t_label ~condition:None
                      ~note:
                        (Printf.sprintf "spurious generated termination at %d via %s" t1
                           gen_t_label)))))
          | Engine.Diagnosis.Head_mismatch | Engine.Diagnosis.Unsupported _ ->
            mk ~anchor:t0 ~rule:gen_label ~condition:None
              ~note:"generated twin not comparable")))

  (* FP/FN on a statically determined fluent: the side that holds the
     point names the rule that derived it (from its [Derived] records);
     the other side's twin is replayed at the span start and its failing
     condition is the blame. *)
  let sd_attribute ~holder ~prober ~activity ~fvp ~kind (s, e) =
    let mk = mk ~activity ~fvp ~kind ~span:(s, e) in
    let covering =
      Store.derived holder.s_run.store fvp
      |> List.find_opt (fun (d : Store.derived) ->
             List.exists (fun (a, b) -> s >= a && s < b) d.spans)
    in
    match covering with
    | None ->
      mk ~anchor:s ~rule:"?" ~condition:None ~note:"no derivation record covers the span"
    | Some d -> (
      let holder_is_gen = kind = Fp in
      match find_rule holder.s_diag activity d.rule with
      | None -> mk ~anchor:s ~rule:d.rule ~condition:None ~note:"deriving rule not found"
      | Some (_, holder_rule) -> (
        match twin prober.s_diag activity ~label:d.rule ~rule:holder_rule with
        | None ->
          let rule = if holder_is_gen then d.rule else "missing:" ^ d.rule in
          mk ~anchor:s ~rule ~condition:None
            ~note:
              (Printf.sprintf "derived by %s; %s has no counterpart rule" d.rule
                 (if holder_is_gen then "gold" else "generated"))
        | Some (p_label, p_rule) -> (
          let rule = if holder_is_gen then d.rule else p_label in
          match Engine.Diagnosis.rule_at prober.s_diag ~rule:p_rule ~fvp ~time:s with
          | Engine.Diagnosis.Failing _ as o ->
            let c = condition_of_outcome o in
            mk ~anchor:s ~rule ~condition:c
              ~note:
                (Printf.sprintf "derived by %s; %s fails condition #%d at %d" d.rule
                   p_label
                   (match c with Some c -> c.index | None -> 0)
                   s)
          | Engine.Diagnosis.Unsupported msg ->
            mk ~anchor:s ~rule ~condition:None ~note:("twin not diagnosable: " ^ msg)
          | _ ->
            mk ~anchor:s ~rule ~condition:None
              ~note:(Printf.sprintf "derived by %s; %s unexpectedly derivable" d.rule p_label))))

  let attribute ~gold ~gen ~activity ~fvp ~kind span =
    match kind with
    | Fp -> (
      match shape gen.s_diag activity with
      | Shape_simple -> simple_fp ~gold ~gen ~activity ~fvp span
      | Shape_sd -> sd_attribute ~holder:gen ~prober:gold ~activity ~fvp ~kind span
      | Shape_none ->
        mk ~activity ~fvp ~kind ~span ~anchor:(fst span) ~rule:"?" ~condition:None
          ~note:"fluent not defined by the generated description")
    | Fn -> (
      match shape gold.s_diag activity with
      | Shape_simple -> simple_fn ~gold ~gen ~activity ~fvp span
      | Shape_sd -> sd_attribute ~holder:gold ~prober:gen ~activity ~fvp ~kind span
      | Shape_none ->
        mk ~activity ~fvp ~kind ~span ~anchor:(fst span) ~rule:"?" ~condition:None
          ~note:"fluent not defined by the gold description")

  (* --- the pipeline --- *)

  let condition_key = function
    | None -> ""
    | Some c -> Printf.sprintf "#%d %s" c.index c.text

  let aggregate attributions =
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun a ->
        let key = (a.activity, a.rule, condition_key a.condition) in
        let row =
          match Hashtbl.find_opt tbl key with
          | Some r -> r
          | None ->
            let r =
              ref
                {
                  row_activity = a.activity;
                  row_rule = a.rule;
                  row_condition = a.condition;
                  fp_points = 0;
                  fn_points = 0;
                  fp_spans = 0;
                  fn_spans = 0;
                }
            in
            Hashtbl.replace tbl key r;
            order := key :: !order;
            r
        in
        (match (a.condition, !row.row_condition) with
        | Some _, None -> row := { !row with row_condition = a.condition }
        | _ -> ());
        match a.kind with
        | Fp ->
          row :=
            { !row with fp_points = !row.fp_points + a.points; fp_spans = !row.fp_spans + 1 }
        | Fn ->
          row :=
            { !row with fn_points = !row.fn_points + a.points; fn_spans = !row.fn_spans + 1 })
      attributions;
    List.rev_map (fun key -> !(Hashtbl.find tbl key)) !order
    |> List.sort (fun a b ->
           compare
             (b.fp_points + b.fn_points, a.row_activity, a.row_rule)
             (a.fp_points + a.fn_points, b.row_activity, b.row_rule))

  (* Divergent-window sampling: a recorder-off probe run of both sides
     locates the diverging spans; the recorded re-run then samples only
     the windows whose evaluation range can touch one — expanded one
     window backwards, so the initiation that opened a diverging
     interval is still captured. Without a window size every query
     covers the whole extent, so sampling degenerates to [Always]. *)
  let divergent_sampling ~config ~gold ~generated ~knowledge ~stream () =
    match Runtime.run ~config ~event_description:gold ~knowledge ~stream () with
    | Error e -> Result.Error ("gold recognition: " ^ e)
    | Ok (gold_result, _) -> (
      match Runtime.run ~config ~event_description:generated ~knowledge ~stream () with
      | Error e -> Result.Error ("generated recognition: " ^ e)
      | Ok (gen_result, _) -> (
        match config.Runtime.Service.window with
        | None -> Ok Derivation.Always
        | Some w ->
          let spans_of result fv =
            match List.find_opt (fun (fv', _) -> Engine.compare_fvp fv fv' = 0) result with
            | Some (_, spans) -> spans
            | None -> Interval.empty
          in
          let diverging =
            List.map fst gold_result @ List.map fst gen_result
            |> List.sort_uniq Engine.compare_fvp
            |> List.concat_map (fun fv ->
                   let g = spans_of gold_result fv and n = spans_of gen_result fv in
                   Interval.to_list (Interval.diff n g)
                   @ Interval.to_list (Interval.diff g n))
          in
          Ok
            (Derivation.Windows
               (fun q ->
                 List.exists (fun (a, b) -> a <= q + 2 && b >= q - (2 * w) + 2) diverging))))

  let diff ?(config = Runtime.default) ?(sample = `Full) ~gold ~generated ~knowledge ~stream
      () =
    let sampling =
      match sample with
      | `Full -> Ok Derivation.Always
      | `One_in (n, seed) -> Ok (Derivation.One_in { n; seed })
      | `Divergent -> divergent_sampling ~config ~gold ~generated ~knowledge ~stream ()
    in
    match sampling with
    | Error e -> Result.Error e
    | Ok sampling -> (
    match recognise ~config ~sampling ~event_description:gold ~knowledge ~stream () with
    | Error e -> Result.Error ("gold recognition: " ^ e)
    | Ok gold_run -> (
      match
        recognise ~config ~sampling ~event_description:generated ~knowledge ~stream ()
      with
      | Error e -> Result.Error ("generated recognition: " ^ e)
      | Ok gen_run -> (
        match Engine.Diagnosis.prepare ~event_description:gold ~knowledge ~stream () with
        | Error e -> Result.Error ("gold diagnosis: " ^ e)
        | Ok gold_diag -> (
          match
            Engine.Diagnosis.prepare ~event_description:generated ~knowledge ~stream ()
          with
          | Error e -> Result.Error ("generated diagnosis: " ^ e)
          | Ok gen_diag ->
            let gold_side = { s_run = gold_run; s_diag = gold_diag } in
            let gen_side = { s_run = gen_run; s_diag = gen_diag } in
            let defined ind =
              shape gold_diag ind <> Shape_none || shape gen_diag ind <> Shape_none
            in
            let spans_of result fv =
              match
                List.find_opt (fun (fv', _) -> Engine.compare_fvp fv fv' = 0) result
              with
              | Some (_, spans) -> spans
              | None -> Interval.empty
            in
            let fvps =
              List.map fst gold_run.result @ List.map fst gen_run.result
              |> List.filter (fun (f, _) -> defined (Term.indicator f))
              |> List.sort_uniq Engine.compare_fvp
            in
            let attributions = ref [] in
            let act_tbl = Hashtbl.create 16 in
            let act_order = ref [] in
            let bump ind matched fp fn =
              let cur =
                match Hashtbl.find_opt act_tbl ind with
                | Some c -> c
                | None ->
                  act_order := ind :: !act_order;
                  { act = ind; matched_points = 0; act_fp_points = 0; act_fn_points = 0 }
              in
              Hashtbl.replace act_tbl ind
                {
                  cur with
                  matched_points = cur.matched_points + matched;
                  act_fp_points = cur.act_fp_points + fp;
                  act_fn_points = cur.act_fn_points + fn;
                }
            in
            List.iter
              (fun ((f, _) as fv) ->
                let activity = Term.indicator f in
                let g = spans_of gold_run.result fv and n = spans_of gen_run.result fv in
                let matched = Interval.duration (Interval.inter g n) in
                let fp = Interval.diff n g and fn = Interval.diff g n in
                bump activity matched (Interval.duration fp) (Interval.duration fn);
                List.iter
                  (fun span ->
                    attributions :=
                      attribute ~gold:gold_side ~gen:gen_side ~activity ~fvp:fv ~kind:Fp
                        span
                      :: !attributions)
                  (Interval.to_list fp);
                List.iter
                  (fun span ->
                    attributions :=
                      attribute ~gold:gold_side ~gen:gen_side ~activity ~fvp:fv ~kind:Fn
                        span
                      :: !attributions)
                  (Interval.to_list fn))
              fvps;
            let attributions = List.rev !attributions in
            let activities =
              List.rev_map (fun ind -> Hashtbl.find act_tbl ind) !act_order
            in
            let total f = List.fold_left (fun acc a -> acc + f a) 0 activities in
            Ok
              {
                attributions;
                rows = aggregate attributions;
                activities;
                total_matched = total (fun a -> a.matched_points);
                total_fp = total (fun a -> a.act_fp_points);
                total_fn = total (fun a -> a.act_fn_points);
              }))))

  (* --- rendering --- *)

  let kind_to_string = function Fp -> "fp" | Fn -> "fn"

  let condition_to_json = function
    | None -> Json.Null
    | Some c ->
      Json.Obj
        [
          ("index", Json.Num (float_of_int c.index));
          ("text", Json.Str c.text);
          ("grounded", Json.Str c.grounded);
        ]

  let report_to_json r =
    Json.Obj
      [
        ("schema", Json.Str "adg-provenance/1");
        ( "totals",
          Json.Obj
            [
              ("matched_points", Json.Num (float_of_int r.total_matched));
              ("fp_points", Json.Num (float_of_int r.total_fp));
              ("fn_points", Json.Num (float_of_int r.total_fn));
            ] );
        ( "activities",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("activity", Json.Str (ind_to_string a.act));
                     ("matched_points", Json.Num (float_of_int a.matched_points));
                     ("fp_points", Json.Num (float_of_int a.act_fp_points));
                     ("fn_points", Json.Num (float_of_int a.act_fn_points));
                   ])
               r.activities) );
        ( "blame",
          Json.List
            (List.map
               (fun row ->
                 Json.Obj
                   [
                     ("activity", Json.Str (ind_to_string row.row_activity));
                     ("rule", Json.Str row.row_rule);
                     ("condition", condition_to_json row.row_condition);
                     ("fp_points", Json.Num (float_of_int row.fp_points));
                     ("fn_points", Json.Num (float_of_int row.fn_points));
                     ("fp_spans", Json.Num (float_of_int row.fp_spans));
                     ("fn_spans", Json.Num (float_of_int row.fn_spans));
                   ])
               r.rows) );
        ( "attributions",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("fvp", Json.Str (fvp_to_string a.fvp));
                     ("kind", Json.Str (kind_to_string a.kind));
                     ( "span",
                       Json.List
                         [
                           Json.Num (float_of_int (fst a.span));
                           Json.Num (float_of_int (snd a.span));
                         ] );
                     ("points", Json.Num (float_of_int a.points));
                     ("anchor", Json.Num (float_of_int a.anchor));
                     ("rule", Json.Str a.rule);
                     ("condition", condition_to_json a.condition);
                     ("note", Json.Str a.note);
                   ])
               r.attributions) );
      ]

  let pp_report fmt r =
    let pr fmt_str = Format.fprintf fmt fmt_str in
    pr "Provenance diff: %d matched, %d FP, %d FN time-points@."
      r.total_matched r.total_fp r.total_fn;
    let diverging =
      List.filter (fun a -> a.act_fp_points > 0 || a.act_fn_points > 0) r.activities
    in
    if diverging = [] then pr "No diverging activities.@."
    else begin
      pr "@.Per-activity:@.";
      List.iter
        (fun a ->
          pr "  %-32s matched %8d   fp %8d   fn %8d@." (ind_to_string a.act)
            a.matched_points a.act_fp_points a.act_fn_points)
        diverging;
      pr "@.Blame table (per rule and condition):@.";
      pr "  %-28s %-28s %-44s %8s %8s@." "activity" "rule" "condition" "fp pts" "fn pts";
      List.iter
        (fun row ->
          let cond =
            match row.row_condition with
            | None -> "-"
            | Some c -> Printf.sprintf "#%d %s" c.index c.text
          in
          let cond =
            if String.length cond > 44 then String.sub cond 0 41 ^ "..." else cond
          in
          pr "  %-28s %-28s %-44s %8d %8d@."
            (ind_to_string row.row_activity)
            row.row_rule cond row.fp_points row.fn_points)
        r.rows;
      pr "@.Example attributions:@.";
      let shown = ref 0 in
      List.iter
        (fun a ->
          if !shown < 5 then begin
            incr shown;
            pr "  [%s] %s over [%d,%d): %s@."
              (String.uppercase_ascii (kind_to_string a.kind))
              (fvp_to_string a.fvp) (fst a.span) (snd a.span) a.note
          end)
        r.attributions
    end

  let report_to_string r =
    let buf = Buffer.create 1024 in
    let fmt = Format.formatter_of_buffer buf in
    pp_report fmt r;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
end

module Export = struct
  let step_to_json (s : Derivation.step) =
    Json.Obj
      [
        ("index", Json.Num (float_of_int s.index));
        ("literal", Json.Str s.literal);
        ("grounded", Json.Str s.grounded);
      ]

  let spans_to_json spans =
    Json.List
      (List.map
         (fun (a, b) ->
           Json.List
             [
               Json.Num (float_of_int a);
               (if b >= Interval.infinity then Json.Null else Json.Num (float_of_int b));
             ])
         spans)

  let source_to_json = function
    | Derivation.Rule { rule; steps } ->
      Json.Obj [ ("rule", Json.Str rule); ("steps", Json.List (List.map step_to_json steps)) ]
    | Derivation.Pattern { rule; pattern } ->
      Json.Obj [ ("rule", Json.Str rule); ("pattern", Json.Str pattern) ]
    | Derivation.Carry { origin } -> Json.Obj [ ("carry", Json.Str origin) ]

  let event_to_json = function
    | Derivation.Query { q; eval_from; window_start } ->
      Json.Obj
        [
          ("type", Json.Str "query");
          ("q", Json.Num (float_of_int q));
          ("eval_from", Json.Num (float_of_int eval_from));
          ("window_start", Json.Num (float_of_int window_start));
        ]
    | Derivation.Transition { fluent; value; time; kind; source } ->
      Json.Obj
        [
          ("type", Json.Str "transition");
          ("fvp", Json.Str (fvp_to_string (fluent, value)));
          ("time", Json.Num (float_of_int time));
          ("kind", Json.Str (match kind with Derivation.Init -> "init" | Derivation.Term -> "term"));
          ("source", source_to_json source);
        ]
    | Derivation.Derived { fluent; value; rule; spans; steps } ->
      Json.Obj
        [
          ("type", Json.Str "derived");
          ("fvp", Json.Str (fvp_to_string (fluent, value)));
          ("rule", Json.Str rule);
          ("spans", spans_to_json spans);
          ("steps", Json.List (List.map step_to_json steps));
        ]
    | Derivation.Input { fluent; value; spans } ->
      Json.Obj
        [
          ("type", Json.Str "input");
          ("fvp", Json.Str (fvp_to_string (fluent, value)));
          ("spans", spans_to_json spans);
        ]

  let proof_to_json events =
    Json.Obj
      [
        ("schema", Json.Str "adg-proof/1");
        ("events", Json.List (List.map event_to_json events));
      ]

  (* Chrome trace_event rendering: one track (tid) per activity
     indicator, named via thread_name metadata; transitions become
     instant events at their time-point, holdsFor derivations and input
     fluents become complete ("X") events spanning their intervals. The
     time axis is stream time (one time-point = one microsecond in the
     viewer). *)
  let proof_to_chrome events =
    let tids = Hashtbl.create 16 in
    let meta = ref [] in
    let tid_of ind =
      match Hashtbl.find_opt tids ind with
      | Some t -> t
      | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.replace tids ind t;
        meta :=
          Json.Obj
            [
              ("name", Json.Str "thread_name");
              ("ph", Json.Str "M");
              ("pid", Json.Num 1.);
              ("tid", Json.Num (float_of_int t));
              ("args", Json.Obj [ ("name", Json.Str (ind_to_string ind)) ]);
            ]
          :: !meta;
        t
    in
    let base name tid ts extra =
      Json.Obj
        ([
           ("name", Json.Str name);
           ("cat", Json.Str "provenance");
           ("pid", Json.Num 1.);
           ("tid", Json.Num (float_of_int tid));
           ("ts", Json.Num (float_of_int ts));
         ]
        @ extra)
    in
    let steps_args steps =
      Json.Obj
        (List.map
           (fun (s : Derivation.step) -> (Printf.sprintf "#%d %s" s.index s.literal, Json.Str s.grounded))
           steps)
    in
    let span_events =
      List.concat_map
        (fun ev ->
          match ev with
          | Derivation.Query _ -> []
          | Derivation.Transition { fluent; value; time; kind; source } ->
            let tid = tid_of (Term.indicator fluent) in
            let kind_s = match kind with Derivation.Init -> "init" | Derivation.Term -> "term" in
            let rule, args =
              match source with
              | Derivation.Rule { rule; steps } -> (rule, steps_args steps)
              | Derivation.Pattern { rule; pattern } ->
                (rule, Json.Obj [ ("pattern", Json.Str pattern) ])
              | Derivation.Carry { origin } -> (origin, Json.Obj [])
            in
            [
              base
                (Printf.sprintf "%s %s (%s)" kind_s (fvp_to_string (fluent, value)) rule)
                tid time
                [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("args", args) ];
            ]
          | Derivation.Derived { fluent; value; rule; spans; steps } ->
            let tid = tid_of (Term.indicator fluent) in
            List.map
              (fun (a, b) ->
                let b = if b >= Interval.infinity then a + 1 else b in
                base
                  (Printf.sprintf "%s (%s)" (fvp_to_string (fluent, value)) rule)
                  tid a
                  [
                    ("ph", Json.Str "X");
                    ("dur", Json.Num (float_of_int (b - a)));
                    ("args", steps_args steps);
                  ])
              spans
          | Derivation.Input { fluent; value; spans } ->
            let tid = tid_of (Term.indicator fluent) in
            List.map
              (fun (a, b) ->
                let b = if b >= Interval.infinity then a + 1 else b in
                base
                  (Printf.sprintf "input %s" (fvp_to_string (fluent, value)))
                  tid a
                  [ ("ph", Json.Str "X"); ("dur", Json.Num (float_of_int (b - a))); ("args", Json.Obj []) ])
              spans)
        events
    in
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev !meta @ span_events));
        ("displayTimeUnit", Json.Str "ms");
      ]
end
