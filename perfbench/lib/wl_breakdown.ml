(* The breakdown workload: the Figures 3-5 regeneration.  One operation
   is one breakdown-utilization search ([Analysis.Breakdown.of_spec] /
   [of_csd]) over a [Generator.batch] task set, for one scheduler of
   EDF, RM, CSD-2, CSD-3 and CSD-4.  Analysis only: the kernel, engine
   and model checker are bypassed.

   Correctness: a search must return a finite utilization in range; for
   EDF and RM the same search is replayed through [Breakdown.search]
   with a counting feasibility wrapper and must return the identical
   value; for CSD the returned utilization must be feasible under some
   candidate partition. *)

let ns = [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ]
let rounds = 48
let cost = Sim.Cost.m68040

type sched = Edf | Rm | Csd of int

let scheds = [ Edf; Rm; Csd 2; Csd 3; Csd 4 ]
let sched_name = function Edf -> "edf" | Rm -> "rm" | Csd q -> Printf.sprintf "csd%d" q
let sched_index = function Edf -> 0 | Rm -> 1 | Csd q -> q
let round_len = List.length ns * List.length scheds

(* Round-major; round [r] scales periods down by 1, 2 or 3 (Figures 3,
   4 and 5), falling back to the unscaled set where that is invalid. *)
let generate ~seed =
  let per_n =
    List.map
      (fun n -> Array.of_list (Workload.Generator.batch ~seed:((seed * 1009) + n) ~n ~count:rounds ()))
      ns
  in
  Array.concat
    (List.init rounds (fun r ->
         let divisor = 1 + (r mod 3) in
         Array.concat
           (List.map
              (fun sets ->
                let ts = sets.(r) in
                let ts =
                  if divisor = 1 then ts
                  else Option.value ~default:ts (Model.Taskset.scale_periods_down ts divisor)
                in
                Array.of_list (List.map (fun s -> (s, ts)) scheds))
              per_n)))

let search sched ts =
  match sched with
  | Edf -> Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Edf ts
  | Rm -> Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Rm ts
  | Csd queues -> Analysis.Breakdown.of_csd ~cost ~queues ts

let spec_of = function Edf -> Emeralds.Sched.Edf | Rm -> Emeralds.Sched.Rm | Csd _ -> assert false

(* [Breakdown.of_spec]'s search, with every feasibility test passed
   through [wrap]. *)
let wrapped_search ~wrap sched ts =
  let spec = spec_of sched in
  let feasible s =
    wrap (fun () ->
        match Model.Taskset.scale_wcets ts s with
        | None -> false
        | Some scaled -> Analysis.Feasibility.feasible ~cost ~spec scaled)
  in
  Analysis.Breakdown.search ~feasible ~u0:(Model.Taskset.utilization ts) ()

let csd_feasible_at ~queues ts v =
  let s = v /. Model.Taskset.utilization ts in
  match Model.Taskset.scale_wcets ts s with
  | None -> false
  | Some scaled ->
    List.exists
      (fun sizes -> Analysis.Feasibility.feasible ~cost ~spec:(Emeralds.Sched.Csd sizes) scaled)
      (Analysis.Partition.candidates ~mode:Analysis.Partition.Grid ~queues
         ~n:(Model.Taskset.size ts))

let check sched ts v =
  Float.is_finite v && v >= 0.0 && v <= 1.02 *. 256.0
  &&
  match sched with
  | Edf | Rm -> wrapped_search ~wrap:(fun f -> f ()) sched ts = v
  | Csd queues -> v = 0.0 || csd_feasible_at ~queues ts v

type result = {
  timed : Measure.Timed.t;  (** work: searches *)
  attempted : int;
  failed : int;
  digest : string;
}

let run ~seconds inputs =
  let n = Array.length inputs in
  let timed = Measure.Timed.create () in
  let failed = ref 0 and digest = Measure.Chain.create () in
  let searches =
    Measure.Timed.run timed ~seconds ~round_len (fun i ->
        let sched, ts = inputs.(i mod n) in
        let fail why =
          incr failed;
          Printf.eprintf "breakdown: search %d (%s) %s\n%!" i (sched_name sched) why
        in
        let t0 = Measure.now_ns () in
        let r = try Ok (search sched ts) with e -> Error e in
        Measure.Timed.op timed ~work:1.0 ~ns:(Measure.now_ns () - t0);
        match r with
        | Ok v ->
          Measure.Chain.add digest (Printf.sprintf "%d:%h;" i v);
          if not (try check sched ts v with _ -> false) then fail "failed its correctness check"
        | Error e -> fail ("raised " ^ Printexc.to_string e))
  in
  { timed; attempted = searches; failed = !failed; digest = Measure.Chain.hex digest }

(* -- traced run -------------------------------------------------------- *)

type traced = {
  search_ms : Measure.Sample.t array;  (** per [sched_index] *)
  calls : int array;  (** feasibility calls, EDF and RM *)
  searches : int array;
  mutable failed : int;
  mutable plain_ns : int;  (** untraced EDF/RM searches *)
  mutable traced_ns : int;  (** traced EDF/RM searches *)
  mutable feasible_ns : int;  (** inside their feasibility spans *)
}

let traced ~sp ~seconds inputs =
  let t =
    {
      search_ms = Array.init 5 (fun _ -> Measure.Sample.create ());
      calls = Array.make 2 0;
      searches = Array.make 5 0;
      failed = 0;
      plain_ns = 0;
      traced_ns = 0;
      feasible_ns = 0;
    }
  in
  let n = Array.length inputs in
  let t_start = Measure.now_ns () in
  let i = ref 0 in
  while !i = 0 || Measure.secs_since t_start < seconds || !i mod round_len <> 0 do
    let sched, ts = inputs.(!i mod n) in
    let si = sched_index sched in
    (try
       let t0 = Measure.now_ns () in
       let v = search sched ts in
       let plain = Measure.now_ns () - t0 in
       let ok =
         match sched with
         | Csd _ ->
           Spans.with_span sp "breakdown.search" ~id:!i (fun () -> ignore (search sched ts));
           Measure.Sample.add t.search_ms.(si) (float_of_int plain /. 1e6);
           true
         | Edf | Rm ->
           let t0 = Measure.now_ns () in
           let v' =
             Spans.with_span sp "breakdown.search" ~id:!i (fun () ->
                 wrapped_search sched ts ~wrap:(fun f ->
                     t.calls.(si) <- t.calls.(si) + 1;
                     let f0 = Measure.now_ns () in
                     let r = Spans.with_span sp "analysis.feasible" ~id:!i f in
                     t.feasible_ns <- t.feasible_ns + (Measure.now_ns () - f0);
                     r))
           in
           let traced = Measure.now_ns () - t0 in
           t.plain_ns <- t.plain_ns + plain;
           t.traced_ns <- t.traced_ns + traced;
           Measure.Sample.add t.search_ms.(si) (float_of_int plain /. 1e6);
           v = v'
       in
       t.searches.(si) <- t.searches.(si) + 1;
       if not ok then t.failed <- t.failed + 1
     with e ->
       t.failed <- t.failed + 1;
       Printf.eprintf "breakdown (traced): search %d raised %s\n%!" !i (Printexc.to_string e));
    incr i
  done;
  t
