open Assignment

let test_known_3x3 () =
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let assignment, total = Oracle.Kuhn_munkres.solve cost in
  Alcotest.(check (float 1e-9)) "optimal total" 5. total;
  (* 1 + 2 + 2: rows to columns 1, 0, 2. *)
  Alcotest.(check (array int)) "assignment" [| 1; 0; 2 |] assignment

let test_identity () =
  let n = 5 in
  let cost = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else 1.)) in
  let assignment, total = Oracle.Kuhn_munkres.solve cost in
  Alcotest.(check (float 1e-9)) "zero total" 0. total;
  Array.iteri (fun i j -> Alcotest.(check int) "diagonal" i j) assignment

let test_empty () =
  let assignment, total = Oracle.Kuhn_munkres.solve [||] in
  Alcotest.(check int) "empty assignment" 0 (Array.length assignment);
  Alcotest.(check (float 1e-9)) "zero" 0. total

let test_non_square_rejected () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Kuhn_munkres.solve: matrix is not square") (fun () ->
      ignore (Oracle.Kuhn_munkres.solve [| [| 1. |]; [| 1.; 2. |] |]))

let test_rectangular () =
  (* The cost matrix of Example 4.4: 3 expressions vs 2; the padded third
     column represents the unmatched expression. *)
  let cost = [| [| 1.; 0.25 |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let pairs, total = Kuhn_munkres.solve_rectangular cost in
  Alcotest.(check (float 1e-9)) "total of example 4.6" 0.25 total;
  Alcotest.(check bool) "pairs (0,1) and (1,0)" true
    (List.mem (0, 1) pairs && List.mem (1, 0) pairs);
  Alcotest.(check int) "only real columns reported" 2 (List.length pairs)

let test_rectangular_more_columns_rejected () =
  Alcotest.check_raises "columns > rows"
    (Invalid_argument "Kuhn_munkres.solve_rectangular: more columns than rows") (fun () ->
      ignore (Kuhn_munkres.solve_rectangular [| [| 1.; 2. |] |]))

(* Brute-force optimal assignment for small n. *)
let brute_force cost =
  let n = Array.length cost in
  let best = ref infinity in
  let rec go i used acc =
    if acc >= !best then ()
    else if i = n then best := acc
    else
      for j = 0 to n - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go (i + 1) used (acc +. cost.(i).(j));
          used.(j) <- false
        end
      done
  in
  go 0 (Array.make n false) 0.;
  !best

let matrix_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    array_size (return n) (array_size (return n) (float_bound_inclusive 10.)))

let arbitrary_matrix =
  QCheck.make
    ~print:(fun m ->
      String.concat "\n"
        (Array.to_list
           (Array.map
              (fun row ->
                String.concat " " (Array.to_list (Array.map string_of_float row)))
              m)))
    matrix_gen

let prop_optimal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"matches brute force on small matrices" ~count:200
       arbitrary_matrix (fun cost ->
         let _, total = Oracle.Kuhn_munkres.solve cost in
         Float.abs (total -. brute_force cost) < 1e-6))

let prop_permutation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"assignment is a permutation" ~count:200 arbitrary_matrix
       (fun cost ->
         let assignment, _ = Oracle.Kuhn_munkres.solve cost in
         let seen = Array.make (Array.length cost) false in
         Array.for_all
           (fun j ->
             if j < 0 || j >= Array.length seen || seen.(j) then false
             else begin
               seen.(j) <- true;
               true
             end)
           assignment))

(* --- rectangular solver vs. the padded square oracle --- *)

(* The pad-to-square formulation the native rectangular solver replaced:
   missing columns become zero-cost "unmatched" slots and the square
   solver — kept as the differential oracle — does the work. *)
let padded_oracle cost =
  let m = Array.length cost in
  if m = 0 then ([], 0.)
  else begin
    let k = Array.length cost.(0) in
    let padded =
      Array.map (fun row -> Array.init m (fun j -> if j < k then row.(j) else 0.)) cost
    in
    let assignment, total = Oracle.Kuhn_munkres.solve padded in
    let pairs = ref [] in
    for i = m - 1 downto 0 do
      if assignment.(i) < k then pairs := (i, assignment.(i)) :: !pairs
    done;
    (!pairs, total)
  end

let rect_matrix_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun m ->
    int_range 0 m >>= fun k ->
    array_size (return m) (array_size (return k) (float_bound_inclusive 10.)))

let arbitrary_rect_matrix =
  QCheck.make
    ~print:(fun m ->
      String.concat "\n"
        (Array.to_list
           (Array.map
              (fun row ->
                String.concat " " (Array.to_list (Array.map string_of_float row)))
              m)))
    rect_matrix_gen

let prop_rectangular_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"rectangular total matches the padded square oracle"
       ~count:500 arbitrary_rect_matrix (fun cost ->
         let _, total = Kuhn_munkres.solve_rectangular cost in
         let _, oracle = padded_oracle cost in
         Float.abs (total -. oracle) < 1e-9))

let prop_rectangular_matching_valid =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"rectangular pairs are a full column matching"
       ~count:500 arbitrary_rect_matrix (fun cost ->
         let m = Array.length cost in
         let k = if m = 0 then 0 else Array.length cost.(0) in
         let pairs, total = Kuhn_munkres.solve_rectangular cost in
         let rows_seen = Array.make (max m 1) false in
         let cols_seen = Array.make (max k 1) false in
         List.length pairs = k
         && List.for_all
              (fun (i, j) ->
                i >= 0 && i < m && j >= 0 && j < k
                && (not rows_seen.(i)) && not cols_seen.(j)
                &&
                (rows_seen.(i) <- true;
                 cols_seen.(j) <- true;
                 true))
              pairs
         && Float.abs
              (total -. List.fold_left (fun acc (i, j) -> acc +. cost.(i).(j)) 0. pairs)
            < 1e-9))

(* --- greedy baseline --- *)

let test_greedy_suboptimal () =
  (* Greedy grabs the cheapest cell (0,0)=1 and is then forced into
     (1,1)=4: total 5; the optimal assignment is 2+2=4. *)
  let cost = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  let _, greedy_total = Greedy.solve_rectangular cost in
  let _, optimal_total = Kuhn_munkres.solve_rectangular cost in
  Alcotest.(check (float 1e-9)) "greedy total" 5. greedy_total;
  Alcotest.(check (float 1e-9)) "optimal total" 4. optimal_total

let test_greedy_rectangular () =
  let cost = [| [| 0.3 |]; [| 0.1 |]; [| 0.5 |] |] in
  let pairs, total = Greedy.solve_rectangular cost in
  Alcotest.(check (float 1e-9)) "picks the cheapest row" 0.1 total;
  Alcotest.(check (list (pair int int))) "pair" [ (1, 0) ] pairs

let prop_greedy_never_better =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"greedy never beats Kuhn-Munkres" ~count:300 arbitrary_matrix
       (fun cost ->
         let _, greedy_total = Greedy.solve_rectangular cost in
         let _, optimal_total = Kuhn_munkres.solve_rectangular cost in
         greedy_total >= optimal_total -. 1e-9))

let suite =
  [
    Alcotest.test_case "known 3x3 instance" `Quick test_known_3x3;
    Alcotest.test_case "greedy is suboptimal on crossing costs" `Quick
      test_greedy_suboptimal;
    Alcotest.test_case "greedy on rectangular matrices" `Quick test_greedy_rectangular;
    prop_greedy_never_better;
    Alcotest.test_case "identity matrix" `Quick test_identity;
    Alcotest.test_case "empty matrix" `Quick test_empty;
    Alcotest.test_case "non-square rejected" `Quick test_non_square_rejected;
    Alcotest.test_case "rectangular padding (Example 4.4)" `Quick test_rectangular;
    Alcotest.test_case "rectangular with more columns rejected" `Quick
      test_rectangular_more_columns_rejected;
    prop_optimal;
    prop_permutation;
    prop_rectangular_matches_oracle;
    prop_rectangular_matching_valid;
  ]
