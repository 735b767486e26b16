(* Reference implementations kept only as differential oracles: the
   one-shot windowed sweep that [Runtime.run] must reproduce at jobs 1,
   and the square Kuhn–Munkres solver that
   [Assignment.Kuhn_munkres.solve_rectangular] must agree with once the
   matrix is padded. *)

open Rtec

module Window = struct
  (* The query time-points for a stream extent [(lo, hi)]: the first once
     a full window has elapsed (so its window reaches back to the start
     of the stream) — capped at [hi], so a stream shorter than one
     window still yields exactly one query. Queries then repeat every
     [step] time-points, with a final query exactly at [hi]; a step
     landing exactly on [hi] is not queried twice. *)
  let query_times ~lo ~hi ~window ~step =
    let first = min (lo + window - 1) hi in
    let rec gen q acc = if q >= hi then List.rev (hi :: acc) else gen (q + step) (q :: acc) in
    let rec dedupe = function
      | a :: (b :: _ as rest) when a = b -> dedupe rest
      | a :: rest -> a :: dedupe rest
      | [] -> []
    in
    dedupe (gen first [])

  (* One session over the whole stream. Without [window], a single query
     covers the whole extent; [step] defaults to [window]; [compile]
     (default [true]) selects the compiled program over the interpreter.
     Intervals still open at a query time are truncated just past that
     query's horizon, so that the next overlapping window extends them
     seamlessly. *)
  let run ?window ?step ?(compile = true) ~event_description ~knowledge ~stream () =
    let lo, hi = Stream.extent stream in
    let window = Option.value ~default:(hi - lo + 1) window in
    let step = Option.value ~default:window step in
    let plan = Engine.plan event_description in
    match Window.Session.params ~compile ~window ~step ~plan ~knowledge () with
    | Result.Error e -> Result.Error e
    | Ok params ->
      let session = Window.Session.create () in
      let rec loop = function
        | [] -> Result.Ok (Window.Session.result session, Window.Session.stats session)
        | q :: rest -> (
          match Window.Session.process params session ~stream ~lo q with
          | Error e -> Result.Error e
          | Ok () -> loop rest)
      in
      Telemetry.Trace.with_span "window.run"
        ~args:
          [
            ("window", Telemetry.Trace.Int window);
            ("step", Telemetry.Trace.Int step);
            ("delta_ok", Telemetry.Trace.Bool (Window.Session.delta_ok params));
          ]
        (fun () -> loop (query_times ~lo ~hi ~window ~step))
end

module Kuhn_munkres = struct
  (* Jonker-style O(n^3) Hungarian algorithm on a square [n x n] matrix,
     using potentials and shortest augmenting paths. [u]/[v] are the
     row/column potentials; [way] records the alternating path for
     augmentation. Rows and columns are 1-based internally, with index 0
     as a sentinel. Returns [(assignment, total)] with
     [assignment.(row) = column] a perfect matching of minimum total
     cost. *)
  let solve cost =
    let n = Array.length cost in
    Array.iter
      (fun row ->
        if Array.length row <> n then invalid_arg "Kuhn_munkres.solve: matrix is not square")
      cost;
    if n = 0 then ([||], 0.)
    else begin
      let u = Array.make (n + 1) 0. in
      let v = Array.make (n + 1) 0. in
      let p = Array.make (n + 1) 0 in
      (* p.(j) = row assigned to column j *)
      let way = Array.make (n + 1) 0 in
      for i = 1 to n do
        p.(0) <- i;
        let j0 = ref 0 in
        let minv = Array.make (n + 1) infinity in
        let used = Array.make (n + 1) false in
        let continue = ref true in
        while !continue do
          used.(!j0) <- true;
          let i0 = p.(!j0) in
          let delta = ref infinity in
          let j1 = ref 0 in
          for j = 1 to n do
            if not used.(j) then begin
              let cur = cost.(i0 - 1).(j - 1) -. u.(i0) -. v.(j) in
              if cur < minv.(j) then begin
                minv.(j) <- cur;
                way.(j) <- !j0
              end;
              if minv.(j) < !delta then begin
                delta := minv.(j);
                j1 := j
              end
            end
          done;
          for j = 0 to n do
            if used.(j) then begin
              u.(p.(j)) <- u.(p.(j)) +. !delta;
              v.(j) <- v.(j) -. !delta
            end
            else minv.(j) <- minv.(j) -. !delta
          done;
          j0 := !j1;
          if p.(!j0) = 0 then continue := false
        done;
        (* Augment along the alternating path. *)
        let rec augment j =
          let j1 = way.(j) in
          p.(j) <- p.(j1);
          if j1 <> 0 then augment j1
        in
        augment !j0
      done;
      let assignment = Array.make n 0 in
      for j = 1 to n do
        if p.(j) > 0 then assignment.(p.(j) - 1) <- j - 1
      done;
      let total = ref 0. in
      for i = 0 to n - 1 do
        total := !total +. cost.(i).(assignment.(i))
      done;
      (assignment, !total)
    end
end
