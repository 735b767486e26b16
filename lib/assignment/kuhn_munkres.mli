(** The Kuhn–Munkres ("Hungarian") algorithm for the assignment problem,
    with worst-case cost O(n^3) (Kuhn 1955), as used by Definitions 4.5,
    4.12 and 4.14 of the paper to find the minimum-cost mapping between
    sets of expressions, body conditions and rules. *)

val solve_rectangular : float array array -> (int * int) list * float
(** Native rectangular solver for an [m x k] matrix with [m >= k]:
    assigns every column to a distinct row via shortest augmenting paths
    in O(m * k^2) — no padding to a square O(m^3) problem — and returns
    the optimal pairs [(row, column)] sorted by row, plus the minimum
    total cost over the k columns. Unmatched rows are the caller's
    business (the cost matrix of Definition 4.3 penalises each by 1).
    The result is the same as padding the matrix to a square one with
    zero-cost "unmatched" columns and solving that, which the
    differential tests use as the oracle. *)
