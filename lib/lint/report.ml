let checks =
  [
    Lock_balance.run;
    Alloc_discipline.run;
    Deadlock.run;
    Hygiene.run;
    State_discipline.run;
    Liveness.run;
    Dead_branch.run;
  ]

let run ctx =
  List.concat_map (fun check -> check ctx) checks |> List.sort Diag.compare

let cell_opt = function Some n -> string_of_int n | None -> "-"

let render diags =
  match diags with
  | [] -> "lint: no findings\n"
  | _ ->
    let tbl =
      Util.Tablefmt.create
        ~headers:[ "severity"; "check"; "task"; "pc"; "message" ]
    in
    List.iter
      (fun (d : Diag.t) ->
        Util.Tablefmt.add_row tbl
          [
            Diag.severity_label d.severity;
            d.check;
            (match d.task with Some t -> Printf.sprintf "tau%d" t | None -> "-");
            cell_opt d.pc;
            d.message;
          ])
      diags;
    Util.Tablefmt.render ~align:Util.Tablefmt.Left tbl

let render_blocking ctx =
  let buf = Buffer.create 256 in
  (match Blocking_terms.per_sem ctx with
  | [] -> Buffer.add_string buf "no critical sections\n"
  | rows ->
    let tbl =
      Util.Tablefmt.create ~headers:[ "sem"; "ceiling"; "worst CS (us)" ]
    in
    List.iter
      (fun (sem, ceiling, worst) ->
        Util.Tablefmt.add_row tbl
          [
            Util.Tablefmt.cell_i sem;
            Util.Tablefmt.cell_i ceiling;
            Util.Tablefmt.cell_f (Model.Time.to_us_f worst);
          ])
      rows;
    Buffer.add_string buf (Util.Tablefmt.render tbl));
  let terms = Blocking_terms.blocking_terms ctx in
  Buffer.add_string buf "blocking terms (us):";
  Array.iteri
    (fun rank b ->
      Buffer.add_string buf
        (Printf.sprintf " B%d=%s" rank
           (Util.Tablefmt.cell_f (Model.Time.to_us_f b))))
    terms;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_json ~scenario diags =
  Util.Json.(
    Obj
      [ ("scenario", String scenario);
        ("findings", List (List.map Diag.to_json diags)) ])
