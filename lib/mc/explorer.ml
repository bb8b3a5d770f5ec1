type bounds = { horizon : int; max_states : int; max_depth : int }

let default_bounds (m : Machine.t) =
  { horizon = m.hyperperiod; max_states = 200_000; max_depth = 10_000 }

type result = {
  verdict : [ `Ok | `Violation of Counterexample.t ];
  expansions : int;
  distinct : int;
  revisits : int;
  por_skipped : int;
  truncated : bool;
  truncated_by : [ `States | `Depth ] option;
  jobs : int;
  max_response : int array;
}

let check ?(por = true) ?seed ~props ~bounds m =
  let por = por && not (List.exists (fun p -> p.Props.timing_sensitive) props) in
  (* With a seed, each branch's children are pushed in a shuffled order:
     the visited set makes the explored state space identical, but
     counterexample search order — and which of several violating
     traces is found first — varies reproducibly with the seed. *)
  let shuffle =
    match seed with
    | None -> fun cs -> cs
    | Some s ->
      let rng = Util.Rng.create ~seed:s in
      fun cs ->
        let a = Array.of_list cs in
        Util.Rng.shuffle rng a;
        Array.to_list a
  in
  let check = Props.check_state props m in
  let check_note = Props.check_note props m in
  let visited = Hashtbl.create 4096 in
  let expansions = ref 0 in
  let revisits = ref 0 in
  let skipped = ref 0 in
  let capped = ref false and too_deep = ref false in
  let jobs = ref 0 in
  let max_response = Array.make (Machine.n_tasks m) 0 in
  let violation = ref None in
  (* Explicit DFS stack of (parent state, choice to commit, reversed
     choice path, depth) frames: the children of one decision state
     share it, and their paths share its path. *)
  let stack = ref [ (State.init m, None, [], 0) ] in
  let running = ref true in
  while !running do
    match !stack with
    | [] -> running := false
    | _ :: _ when !expansions >= bounds.max_states ->
      capped := true;
      running := false
    | (parent, choice, path, depth) :: rest -> (
      stack := rest;
      incr expansions;
      let e =
        Step.expand ~check ~check_note ?choice ~horizon:bounds.horizon m parent
      in
      List.iter
        (fun (_, n) ->
          match n with
          | State.Job_done { idx; response } ->
            incr jobs;
            if response > max_response.(idx) then
              max_response.(idx) <- response
          | _ -> ())
        e.notes;
      match e.violation with
      | Some (p, msg, at) ->
        running := false;
        violation :=
          Some
            {
              Counterexample.prop = p;
              message = msg;
              at;
              horizon = bounds.horizon;
              choices = List.rev path;
            }
      | None -> (
        match e.next with
        | `Leaf -> ()
        | `Branch cs ->
          let key = State.key m e.state in
          if Hashtbl.mem visited key then incr revisits
          else begin
            Hashtbl.add visited key ();
            if depth >= bounds.max_depth then too_deep := true
            else begin
              let cs, sk = if por then Por.reduce m e.state cs else (cs, 0) in
              let cs = shuffle cs in
              skipped := !skipped + sk;
              List.iter
                (fun ch ->
                  stack := (e.state, Some ch, ch :: path, depth + 1) :: !stack)
                cs
            end
          end))
  done;
  {
    verdict =
      (match !violation with None -> `Ok | Some cex -> `Violation cex);
    expansions = !expansions;
    distinct = Hashtbl.length visited;
    revisits = !revisits;
    por_skipped = !skipped;
    truncated = !capped || !too_deep;
    truncated_by =
      (if !capped then Some `States
       else if !too_deep then Some `Depth
       else None);
    jobs = !jobs;
    max_response;
  }
