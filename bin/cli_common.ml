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

(* The one scenario vocabulary: every subcommand's --preset NAME. *)
let scenario_doc =
  "Scenario: " ^ String.concat ", " Workload.Scenario.known ^ "."

let scenario_of name =
  match Workload.Scenario.make name with
  | Some s -> s
  | None ->
    bad_invocation "unknown scenario %S (expected: %s)" name
      (String.concat ", " Workload.Scenario.known)

(* lint's and analyze's --preset: one scenario, or every shipped one. *)
let scenarios_of = function
  | None -> Workload.Scenario.all ()
  | Some name -> [ scenario_of name ]

(* A multi-scenario text report: one section per scenario. *)
let section name body = Printf.sprintf "==== %s ====\n%s" name body

(* One SARIF log over several scenarios: each finding's location
   starts with its scenario's name. *)
let scoped name diags =
  List.map (fun d -> { d with Lint.Diag.scope = Some name }) diags

(* A CSD partition must fit the workload it schedules; checked before
   the kernel is built so a bad --sched is a usage error. *)
let validated_sched spec taskset =
  (try
     Emeralds.Sched.validate_partition spec
       ~n_tasks:(Model.Taskset.size taskset)
   with Invalid_argument msg ->
     bad_invocation "bad --sched %s for %d task(s): %s"
       (Emeralds.Sched.spec_name spec)
       (Model.Taskset.size taskset)
       msg);
  spec

(* A program the kernel refuses at run time (the double-free demo frees
   a block it does not hold) is a finding about the scenario, not an
   internal error; any other exception still escapes as one. *)
let simulating (scenario : Workload.Scenario.t) f =
  try f ()
  with Emeralds.Kernel.Program_rejected msg ->
    Printf.eprintf "scenario %s: the kernel rejected a program: %s\n"
      scenario.name msg;
    exit 1

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

(* --out of trace and explain: the rendered document goes to the file,
   a one-line note to stdout. *)
let write_output ~out ~format output =
  match out with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc output);
    Printf.printf "%s output written to %s\n" format path
  | None -> print_string output

(* The one output switch of every checking subcommand. *)
let format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: text (the report), json (one machine-readable \
           document per line) or sarif (the findings as one SARIF 2.1.0 \
           log).")

(* Print the rendering [format] chooses, or write it to [out]; [json]
   gives one document per line. *)
let emit ?out format ~text ~json ~sarif =
  let name, output =
    match format with
    | `Text -> ("text", text ())
    | `Json -> ("json", String.concat "" (List.map json_line (json ())))
    | `Sarif -> ("sarif", json_line (sarif ()))
  in
  write_output ~out ~format:name output
