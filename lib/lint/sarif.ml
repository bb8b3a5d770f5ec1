type level = Error | Warning | Note

type result = {
  rule_id : string;
  level : level;
  message : string;
  logical : string option;
}

let level_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let of_diags diags =
  List.map
    (fun (d : Diag.t) ->
      let logical =
        match (d.task, d.pc) with
        | None, _ -> None
        | Some t, None -> Some (Printf.sprintf "task %d" t)
        | Some t, Some pc -> Some (Printf.sprintf "task %d, pc %d" t pc)
      in
      {
        rule_id = d.check;
        level =
          (match d.severity with
          | Diag.Error -> Error
          | Diag.Warning -> Warning
          | Diag.Info -> Note);
        message = d.message;
        logical;
      })
    diags

let in_scenario name results =
  List.map
    (fun r ->
      {
        r with
        logical =
          Some (match r.logical with None -> name | Some l -> name ^ ", " ^ l);
      })
    results

open Util.Json

let result_json r =
  let locations =
    match r.logical with
    | None -> []
    | Some l ->
      let name = Obj [ ("fullyQualifiedName", String l) ] in
      [ ("locations", List [ Obj [ ("logicalLocations", List [ name ]) ] ]) ]
  in
  Obj
    ([ ("ruleId", String r.rule_id); ("level", String (level_label r.level));
       ("message", Obj [ ("text", String r.message) ]) ]
    @ locations)

let run_json (tool, results) =
  let rules =
    List.sort_uniq String.compare (List.map (fun x -> x.rule_id) results)
    |> List.map (fun id -> Obj [ ("id", String id) ])
  in
  let driver =
    Obj [ ("name", String tool); ("version", String "0.1"); ("rules", List rules) ]
  in
  Obj
    [ ("tool", Obj [ ("driver", driver) ]);
      ("results", List (List.map result_json results)) ]

let log runs =
  Obj
    [ ( "$schema",
        String
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", String "2.1.0"); ("runs", List (List.map run_json runs)) ]
