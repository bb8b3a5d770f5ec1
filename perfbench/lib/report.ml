(* The benchmark's output: the metric table, the one-line result the
   last line of standard output carries, and the fuller report. *)

type table = (string, float) Hashtbl.t

let create () : table = Hashtbl.create 128
let set (t : table) name v = Hashtbl.replace t name v

(* The named metrics in catalogue order, and the names that were not
   measured (missing or non-finite). *)
let metrics_json (t : table) catalogue =
  let missing = ref [] in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:Float.nan (Hashtbl.find_opt t name) in
        if not (Float.is_finite v) then missing := name :: !missing;
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      catalogue
  in
  (Json.Obj fields, List.rev !missing)

let result_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", metrics);
    ]

(* Parse a result line back; [Error] names what is wrong with it. *)
let parse_result_line line =
  match Json.of_string line with
  | exception Json.Parse_error e -> Error e
  | Json.Obj kv as v -> (
    let keys = List.sort compare (List.map fst kv) in
    if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then Error "unexpected keys"
    else
      match (Json.member "correct" v, Json.member "attempted" v, Json.member "failed" v, Json.member "metrics" v) with
      | Some (Json.Bool c), Some (Json.Int a), Some (Json.Int f), Some (Json.Obj ms) ->
        let metric (name, m) =
          match (Json.member "value" m, Json.member "unit" m) with
          | Some value, Some (Json.String unit) -> (
            match Json.to_float value with
            | Some x -> Ok (name, x, unit)
            | None -> Error ("non-numeric value for " ^ name))
          | _ -> Error ("malformed metric " ^ name)
        in
        let rec all acc = function
          | [] -> Ok (c, a, f, List.rev acc)
          | m :: rest -> ( match metric m with Ok x -> all (x :: acc) rest | Error e -> Error e)
        in
        all [] ms
      | _ -> Error "ill-typed fields")
  | _ -> Error "not an object"
