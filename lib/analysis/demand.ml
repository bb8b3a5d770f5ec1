let dbf ~period ~deadline ~wcet t =
  if t < deadline then 0 else (((t - deadline) / period) + 1) * wcet

(* Module-local so the demand loops inline it: dune's dev profile
   compiles with -opaque, which hides [Util.Intmath]'s body from this
   module. *)
let[@inline] ceil_div a b =
  assert (b > 0 && a >= 0);
  (a + b - 1) / b

let[@inline] rbf ~period ~wcet t = ceil_div t period * wcet

let utilization own interference =
  let u = ref 0.0 in
  Array.iter
    (fun (p, _, c) -> u := !u +. (float_of_int c /. float_of_int p))
    own;
  Array.iter
    (fun (p, c) -> u := !u +. (float_of_int c /. float_of_int p))
    interference;
  !u

(* Synchronous busy period of the whole (own + interference) load:
   least fixpoint of W = sum ceil(W/P) * C. *)
let busy_period ~own ~interference ~limit =
  let total w =
    let acc = ref 0 in
    Array.iter (fun (p, _, c) -> acc := !acc + rbf ~period:p ~wcet:c w) own;
    Array.iter (fun (p, c) -> acc := !acc + rbf ~period:p ~wcet:c w) interference;
    !acc
  in
  let w0 =
    Array.fold_left (fun a (_, _, c) -> a + c) 0 own
    + Array.fold_left (fun a (_, c) -> a + c) 0 interference
  in
  let rec iterate w steps =
    if steps > limit then None
    else
      let w' = total w in
      if w' = w then Some w else iterate w' (steps + 1)
  in
  if w0 = 0 then Some 0 else iterate w0 0

(* Processor-demand check over the own deadlines in the synchronous
   busy period [0, H], walked backwards (QPA, Zhang & Burns 2009).
   The demand h(t) = sum dbf + sum rbf is non-decreasing, so a passing
   check h(t) = d <= t also passes every deadline in [d, t]: the walk
   jumps from [t] to the latest own deadline strictly below [d], not
   to [d] itself as plain QPA does, so every point it evaluates is one
   of the deadlines a forward walk would check. *)
let feasible ?(max_points = 200_000) ~own ~interference () =
  let u = utilization own interference in
  if u > 1.0 +. 1e-12 then false
  else
    match busy_period ~own ~interference ~limit:5_000 with
    | None -> false (* did not converge: treat as infeasible *)
    | Some horizon ->
      let n = Array.length own in
      let points =
        Array.fold_left
          (fun acc (p, dl, _) ->
            if dl <= horizon then acc + ((horizon - dl) / p) + 1 else acc)
          0 own
      in
      let demand t =
        let d = ref 0 in
        for i = 0 to n - 1 do
          let p, dl, c = own.(i) in
          d := !d + dbf ~period:p ~deadline:dl ~wcet:c t
        done;
        for i = 0 to Array.length interference - 1 do
          let p, c = interference.(i) in
          d := !d + rbf ~period:p ~wcet:c t
        done;
        !d
      in
      (* Latest own deadline strictly below [x <= H + 1], or [min_int]. *)
      let latest_below x =
        let best = ref min_int in
        for i = 0 to n - 1 do
          let p, dl, _ = own.(i) in
          if dl < x then begin
            let t = dl + ((x - 1 - dl) / p * p) in
            if t > !best then best := t
          end
        done;
        !best
      in
      let rec walk t =
        t = min_int
        ||
        let d = demand t in
        d <= t && walk (latest_below d)
      in
      (* more check points than [max_points]: be conservative *)
      points <= max_points && walk (latest_below (horizon + 1))
