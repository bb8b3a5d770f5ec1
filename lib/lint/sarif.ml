open Util.Json

let level_label = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Info -> "note"

let result_json (d : Diag.t) =
  let locations =
    match Diag.location d with
    | None -> []
    | Some l ->
      let name = Obj [ ("fullyQualifiedName", String l) ] in
      [ ("locations", List [ Obj [ ("logicalLocations", List [ name ]) ] ]) ]
  in
  Obj
    ([ ("ruleId", String d.check); ("level", String (level_label d.severity));
       ("message", Obj [ ("text", String d.message) ]) ]
    @ locations)

let run_json (tool, diags) =
  let rules =
    List.sort_uniq String.compare (List.map (fun (d : Diag.t) -> d.check) diags)
    |> List.map (fun id -> Obj [ ("id", String id) ])
  in
  let driver =
    Obj [ ("name", String tool); ("version", String "0.1"); ("rules", List rules) ]
  in
  Obj
    [ ("tool", Obj [ ("driver", driver) ]);
      ("results", List (List.map result_json diags)) ]

let log runs =
  Obj
    [ ( "$schema",
        String
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", String "2.1.0"); ("runs", List (List.map run_json runs)) ]
