type critical_section = {
  task_rank : int;
  sem : int;
  duration : int;
  nested : int list;
  chained : int list;
}

(* Worst-case effective hold time of a section: its own bounded time
   plus, for every semaphore acquired while it is held, the longest the
   holder can wait for it — another task's effective section on that
   inner semaphore, recursively.  Nested acquires respect a global
   order when the program is deadlock-free (the lock-order lint), so
   the recursion is well-founded; should a cycle reach here anyway the
   [seen] guard cuts it rather than looping. *)
let effective css =
  let rec eff seen cs =
    List.fold_left
      (fun acc inner_sem ->
        if List.mem inner_sem seen then acc
        else
          let wait =
            List.fold_left
              (fun w cs' ->
                if cs'.sem = inner_sem && cs'.task_rank <> cs.task_rank then
                  max w (eff (inner_sem :: seen) cs')
                else w)
              0 css
          in
          acc + wait)
      cs.duration cs.nested
  in
  fun cs -> eff [ cs.sem ] cs

let blocking_terms ~n css =
  let users_at_or_above sem rank =
    List.exists (fun cs -> cs.sem = sem && cs.task_rank <= rank) css
  in
  let eff = effective css in
  Array.init n (fun rank ->
      let qualifying =
        List.filter
          (fun cs ->
            cs.task_rank > rank
            && List.exists
                 (fun s -> users_at_or_above s rank)
                 (cs.sem :: cs.chained))
          css
      in
      if qualifying = [] then 0
      else begin
        (* Under PI a job is blocked at most once per lower-priority
           task and at most once per semaphore: sum the worst effective
           section under each grouping and take the smaller sum. *)
        let sum_of_max key =
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun cs ->
              let k = key cs and d = eff cs in
              match Hashtbl.find_opt tbl k with
              | Some d0 when d0 >= d -> ()
              | Some _ | None -> Hashtbl.replace tbl k d)
            qualifying;
          Hashtbl.fold (fun _ d acc -> acc + d) tbl 0
        in
        min
          (sum_of_max (fun cs -> cs.task_rank))
          (sum_of_max (fun cs -> cs.sem))
      end)
