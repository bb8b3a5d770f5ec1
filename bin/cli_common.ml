(* Argument vocabulary shared by the CLI subcommands: scheduler and
   workload selection, the exit-code convention, and the validated
   observability knobs.  Every subcommand composes these rather than
   re-declaring its own spellings, so `--seed` or `--preset` mean the
   same thing everywhere. *)

open Cmdliner

let sched_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "edf" -> Ok Emeralds.Sched.Edf
    | "rm" -> Ok Emeralds.Sched.Rm
    | "rm-heap" | "rmheap" -> Ok Emeralds.Sched.Rm_heap
    | other ->
      (* csd2 / csd3 / csd4, or an explicit partition "csd:3,4" *)
      if String.length other > 4 && String.sub other 0 4 = "csd:" then
        try
          let sizes =
            String.split_on_char ','
              (String.sub other 4 (String.length other - 4))
            |> List.map int_of_string
          in
          Ok (Emeralds.Sched.Csd sizes)
        with _ -> Error (`Msg "bad CSD partition, expected csd:S1,S2,...")
      else if other = "csd2" then Ok (Emeralds.Sched.Csd [ 3 ])
      else if other = "csd3" then Ok (Emeralds.Sched.Csd [ 2; 3 ])
      else if other = "csd4" then Ok (Emeralds.Sched.Csd [ 2; 2; 3 ])
      else Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print ppf spec = Format.pp_print_string ppf (Emeralds.Sched.spec_name spec) in
  Arg.conv (parse, print)

let preset_conv =
  let parse = function
    | "table2" -> Ok Workload.Presets.table2
    | "engine" -> Ok Workload.Presets.engine_control
    | "avionics" -> Ok Workload.Presets.avionics
    | "voice" -> Ok Workload.Presets.voice
    | s -> Error (`Msg (Printf.sprintf "unknown preset %S" s))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<taskset>")

let preset =
  Arg.(
    value
    & opt (some preset_conv) None
    & info [ "preset" ] ~docv:"NAME"
        ~doc:"Named workload: table2, engine, avionics or voice.")

let random_n =
  Arg.(
    value
    & opt (some int) None
    & info [ "random" ] ~docv:"N" ~doc:"Generate a random N-task workload.")

let seed =
  Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.")

let file =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:"Load the task set from a spec file (see lib/workload/spec_file.mli).")

(* Exit-code convention, shared by every subcommand: 0 = clean, 1 =
   findings/violations in an otherwise valid run, 2 = bad invocation
   (unknown name, unreadable file, conflicting arguments). *)
let bad_invocation fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let taskset_of ~preset ~random_n ~file ~seed =
  match (preset, random_n, file) with
  | Some ts, None, None -> ts
  | None, Some n, None ->
    Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n ()
  | None, None, Some path -> (
    match Workload.Spec_file.load path with
    | Ok ts -> ts
    | Error msg -> bad_invocation "cannot load task set: %s" msg)
  | None, None, None -> Workload.Presets.table2
  | _ -> bad_invocation "give exactly one of --preset, --random, --file"

(* Shared by inject and trace: a ring must hold at least one slot and
   stay inside the paper's total-memory envelope (a recorder bigger
   than the whole kernel budget defeats the point of bounded
   recording). *)
let validated_ring_bytes bytes =
  if bytes < Obs.Flightrec.slot_bytes then
    bad_invocation "--ring-bytes %d is smaller than one %d-byte slot" bytes
      Obs.Flightrec.slot_bytes;
  let _, envelope_hi = Emeralds.Footprint.envelope in
  if bytes > envelope_hi then
    bad_invocation "--ring-bytes %d exceeds the %d-byte memory envelope" bytes
      envelope_hi;
  bytes

let category_mask_of_names spec =
  match spec with
  | None -> Obs.Probe.all_mask
  | Some s ->
    let cats =
      List.map
        (fun name ->
          match Obs.Probe.category_of_name (String.lowercase_ascii name) with
          | Some c -> c
          | None ->
            bad_invocation "unknown category %S (expected: %s)" name
              (String.concat ", "
                 (List.map Obs.Probe.category_name Obs.Probe.all_categories)))
        (String.split_on_char ',' s)
    in
    Obs.Probe.mask_of cats

(* Every JSON and SARIF document leaves the CLI here, one per line. *)
let json_line v = Util.Json.to_string v ^ "\n"
let print_json v = print_string (json_line v)

(* --format of the subcommands whose one alternative output is SARIF *)
let sarif_only = function
  | None | Some "sarif" -> ()
  | Some f -> bad_invocation "unknown format %S (expected: sarif)" f
