let m_calls = Telemetry.Metrics.counter "kuhn_munkres.calls"
let m_iterations = Telemetry.Metrics.counter "kuhn_munkres.iterations"
let h_n = Telemetry.Metrics.histogram "kuhn_munkres.n"

(* Native rectangular solver. The similarity metric only ever needs the k
   columns of an [m x k] matrix (k <= m) matched to k distinct rows: the
   [m - k] unmatched rows contribute a fixed penalty handled by the
   caller, so padding the matrix to [m x m] (as this function did until
   PR 4) solves an O(m^3) problem whose extra columns are all-zero noise.
   Instead, columns here play the role rows play in the square
   Hungarian algorithm (the tests' oracle): each of the k columns is
   assigned in turn via a shortest augmenting path over the m rows,
   reusing the column/row potentials [u]/[v] across augmentations. One
   augmentation visits at most k+1 rows of the alternating tree and
   scans the m rows each visit, so the whole solve is O(m * k^2) — on
   the paper's cost matrices (median k of 1-3 against m up to ~80) this
   removes almost all of the padded solver's work. The optimum is the
   same: zero-cost padding columns never change the minimum over real
   columns. *)
let solve_rectangular cost =
  let m = Array.length cost in
  if m = 0 then ([], 0.)
  else begin
    let k = Array.length cost.(0) in
    if k > m then invalid_arg "Kuhn_munkres.solve_rectangular: more columns than rows";
    Array.iter
      (fun row ->
        if Array.length row <> k then
          invalid_arg "Kuhn_munkres.solve_rectangular: ragged matrix")
      cost;
    if k = 0 then ([], 0.)
    else begin
      Telemetry.Metrics.incr m_calls;
      Telemetry.Metrics.observe h_n (float_of_int m);
      let iterations = ref 0 in
      let u = Array.make (k + 1) 0. in
      let v = Array.make (m + 1) 0. in
      let p = Array.make (m + 1) 0 in
      (* p.(i) = column assigned to row i; index 0 is the sentinel. *)
      let way = Array.make (m + 1) 0 in
      for j = 1 to k do
        p.(0) <- j;
        let i0 = ref 0 in
        let minv = Array.make (m + 1) infinity in
        let used = Array.make (m + 1) false in
        let continue = ref true in
        while !continue do
          incr iterations;
          used.(!i0) <- true;
          let j0 = p.(!i0) in
          let delta = ref infinity in
          let i1 = ref 0 in
          for i = 1 to m do
            if not used.(i) then begin
              let cur = cost.(i - 1).(j0 - 1) -. u.(j0) -. v.(i) in
              if cur < minv.(i) then begin
                minv.(i) <- cur;
                way.(i) <- !i0
              end;
              if minv.(i) < !delta then begin
                delta := minv.(i);
                i1 := i
              end
            end
          done;
          for i = 0 to m do
            if used.(i) then begin
              u.(p.(i)) <- u.(p.(i)) +. !delta;
              v.(i) <- v.(i) -. !delta
            end
            else minv.(i) <- minv.(i) -. !delta
          done;
          i0 := !i1;
          if p.(!i0) = 0 then continue := false
        done;
        let rec augment i =
          let i1 = way.(i) in
          p.(i) <- p.(i1);
          if i1 <> 0 then augment i1
        in
        augment !i0
      done;
      Telemetry.Metrics.incr m_iterations ~by:!iterations;
      let pairs = ref [] in
      for i = m downto 1 do
        if p.(i) > 0 then pairs := (i - 1, p.(i) - 1) :: !pairs
      done;
      (* Sum in ascending row order, exactly like the padded formulation
         did, so totals stay bit-identical to the old implementation. *)
      let total = List.fold_left (fun acc (i, j) -> acc +. cost.(i).(j)) 0. !pairs in
      (!pairs, total)
    end
  end
