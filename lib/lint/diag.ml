type severity = Error | Warning | Info

type t = {
  severity : severity;
  check : string;
  scope : string option;
  task : int option;
  pc : int option;
  message : string;
}

let make severity ~check ?scope ?task ?pc message =
  { severity; check; scope; task; pc; message }

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_order = function Error -> 0 | Warning -> 1 | Info -> 2

let opt_order = function None -> max_int | Some i -> i

let compare a b =
  let c = Stdlib.compare (severity_order a.severity) (severity_order b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.check b.check in
    if c <> 0 then c
    else
      let c = Stdlib.compare (opt_order a.task) (opt_order b.task) in
      if c <> 0 then c
      else
        let c = Stdlib.compare (opt_order a.pc) (opt_order b.pc) in
        if c <> 0 then c else String.compare a.message b.message

let count sev diags =
  List.length (List.filter (fun d -> d.severity = sev) diags)

let errors diags = count Error diags

let location d =
  let within =
    match (d.task, d.pc) with
    | None, _ -> None
    | Some t, None -> Some (Printf.sprintf "task %d" t)
    | Some t, Some pc -> Some (Printf.sprintf "task %d, pc %d" t pc)
  in
  match (d.scope, within) with
  | None, l -> l
  | Some s, None -> Some s
  | Some s, Some l -> Some (s ^ ", " ^ l)

let to_json d =
  Util.Json.(
    Obj
      [ ("severity", String (severity_label d.severity)); ("check", String d.check);
        ("task", int_opt d.task); ("pc", int_opt d.pc); ("message", String d.message) ])
