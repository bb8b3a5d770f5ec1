(* Module-local so the fixpoint loop inlines it: dune's dev profile
   compiles with -opaque, which hides [Util.Intmath]'s body from this
   module. *)
let[@inline] ceil_div a b =
  assert (b > 0 && a >= 0);
  (a + b - 1) / b

(* Least fixpoint of R = base + sum_{j<i} ceil(R/T_j) C_j, iterated
   from [start], which must lie at or below it with f(start) >= start;
   [None] once an iterate passes [deadline] or [limit] steps. *)
let fixpoint ~limit ~tasks ~deadline ~base i start =
  let rec iterate r steps =
    if steps > limit then None
    else begin
      let interference = ref 0 in
      for j = 0 to i - 1 do
        let period_j, _, wcet_j = tasks.(j) in
        interference := !interference + (ceil_div r period_j * wcet_j)
      done;
      let r' = base + !interference in
      if r' > deadline then None
      else if r' = r then Some r
      else iterate r' (steps + 1)
    end
  in
  iterate start 0

let response_time ?(limit = 10_000) ?blocking ~tasks i =
  let _, deadline, wcet = tasks.(i) in
  let b = match blocking with None -> 0 | Some terms -> terms.(i) in
  fixpoint ~limit ~tasks ~deadline ~base:(wcet + b) i (wcet + b)

type decomposition = {
  dec_response : int;
  dec_own : int;
  dec_blocking : int;
  dec_interference : int array;
}

(* The fixpoint satisfies R* = C + B + sum_j ceil(R*/T_j) C_j, so the
   per-term split is exact by construction: re-evaluating the
   interference sum at R* recovers the terms the iteration folded
   together.  [response_time] stays the single source of truth for the
   fixpoint itself. *)
let decompose ?limit ?blocking ~tasks i =
  match response_time ?limit ?blocking ~tasks i with
  | None -> None
  | Some r ->
    let _, _, wcet = tasks.(i) in
    let b = match blocking with None -> 0 | Some terms -> terms.(i) in
    let interference =
      Array.init i (fun j ->
          let period_j, _, wcet_j = tasks.(j) in
          ceil_div r period_j * wcet_j)
    in
    Some
      {
        dec_response = r;
        dec_own = wcet;
        dec_blocking = b;
        dec_interference = interference;
      }

(* Ranks [from..upto-1] in turn.  Warm start (Davis, Zabos & Burns
   2008): without blocking terms and with C_i > 0, R_i - C_i =
   sum_{j<i} ceil(R_i/T_j) C_j is a pre-fixpoint of rank i-1's
   response function, so R_i >= R_{i-1} + C_i, and that start also
   satisfies f_i(start) >= start.  Iterating from it reaches the same
   least fixpoint as the cold start C_i, in fewer steps.  A rank with
   C_i = 0 has R_i = 0 and starts cold, and so does every rank under
   blocking terms, which can shrink from rank to rank. *)
let feasible_range ?(limit = 10_000) ?blocking tasks ~from ~upto =
  let rec loop i prev =
    i >= upto
    ||
    let _, deadline, wcet = tasks.(i) in
    let base = match blocking with None -> wcet | Some terms -> wcet + terms.(i) in
    let start = match blocking with None when wcet > 0 -> prev + wcet | _ -> base in
    match fixpoint ~limit ~tasks ~deadline ~base i start with
    | Some r -> loop (i + 1) r
    | None -> false
  in
  loop from 0

let feasible_prefix ?limit ?blocking tasks ~upto =
  feasible_range ?limit ?blocking tasks ~from:0 ~upto

let feasible ?limit ?blocking tasks =
  feasible_prefix ?limit ?blocking tasks ~upto:(Array.length tasks)
