(* The benchmark's own checks: the JSON escaper and parser round-trip
   hostile strings, a real (short) workload run's result line parses
   back with exactly the keys the result contract names, and
   BENCHMARK.json names exactly the workloads and metrics the program
   reports. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let roundtrip v = Json.of_string (Json.to_string v)

let test_strings () =
  List.iter
    (fun s ->
      check
        (Printf.sprintf "string %S round-trips" s)
        (roundtrip (Json.String s) = Json.String s))
    [ ""; "plain"; "quote \" and \\ backslash"; "tab\tnew\nline\rcr"; "\001\031\127";
      "tau\xcf\x84 task"; "emoji \xf0\x9f\x98\x80"; "/slash" ];
  (* invalid UTF-8 is replaced, never passed through *)
  check "invalid utf-8 becomes U+FFFD"
    (roundtrip (Json.String "a\xffb") = Json.String "a\xef\xbf\xbdb");
  check "control characters are escaped, not raw"
    (not (String.exists (fun c -> Char.code c < 0x20) (Json.to_string (Json.String "\001\n"))));
  check "object keys are escaped"
    (roundtrip (Json.Obj [ ("k\"\001", Json.Null) ]) = Json.Obj [ ("k\"\001", Json.Null) ])

let test_numbers () =
  List.iter
    (fun f -> check (Printf.sprintf "float %h round-trips" f) (roundtrip (Json.Float f) = Json.Float f))
    [ 0.1; 1e-9; 1234567.891; 0.013492775; -2.5e300; 1.0 /. 3.0 ];
  check "integral float stays a number"
    (match roundtrip (Json.Float 3.0) with Json.Int 3 | Json.Float 3.0 -> true | _ -> false);
  check "non-finite floats print as null" (Json.to_string (Json.Float Float.nan) = "null");
  check "ints round-trip" (roundtrip (Json.Int (-42)) = Json.Int (-42));
  check "malformed input is rejected"
    (List.for_all
       (fun s -> match Json.of_string s with exception Json.Parse_error _ -> true | _ -> false)
       [ "{"; "[1,]"; "\"\001\""; "{\"a\" 1}"; "1 2"; "tru" ])

(* One round of the breakdown workload, through the same result-line
   code the benchmark prints. *)
let test_result_line () =
  let inputs = Array.sub (Wl_breakdown.generate ~seed:3) 0 Wl_breakdown.round_len in
  let r = Wl_breakdown.run ~seconds:0.0 inputs in
  check "one round of breakdown searches ran" (r.attempted = Wl_breakdown.round_len);
  check "every search was timed" (Measure.Timed.operations r.timed = r.attempted);
  check "no search failed" (r.failed = 0);
  let t = Report.create () in
  Report.set t "setup_s" 0.01;
  Report.set t "heap_peak_mb" (Measure.heap_peak_mb ());
  Report.set t "throughput_per_s" (Measure.Timed.rate r.timed);
  Report.set t "op_ms.p50" (Measure.Timed.quantile_ms r.timed 0.5);
  Report.set t "op_ms.p90" (Measure.Timed.quantile_ms r.timed 0.9);
  let metrics, missing = Report.metrics_json t Catalogue.end_to_end in
  check "every end-to-end metric measured" (missing = []);
  let line =
    Json.to_string (Report.result_line ~correct:true ~attempted:r.attempted ~failed:r.failed metrics)
  in
  match Report.parse_result_line line with
  | Error e -> check ("result line parses: " ^ e) false
  | Ok (correct, attempted, failed, ms) ->
    check "result fields read back" (correct && attempted = r.attempted && failed = 0);
    check "metric names and units read back"
      (List.map (fun (n, _, u) -> (n, u)) ms = Catalogue.end_to_end);
    check "metric values are positive" (List.for_all (fun (_, v, _) -> v > 0.0) ms)

let names_units field doc =
  match Json.member field doc with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | Some (Json.String n), None -> (n, "")
        | _ -> ("?", "?"))
      l
  | _ -> []

let test_benchmark_json () =
  let path = "../../BENCHMARK.json" in
  let ic = open_in_bin path in
  let doc = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  check "BENCHMARK.json workloads match"
    (List.map fst (names_units "workloads" doc) = Catalogue.workloads);
  check "BENCHMARK.json end_to_end metrics match"
    (names_units "end_to_end" doc = Catalogue.end_to_end);
  check "BENCHMARK.json per_layer metrics match" (names_units "per_layer" doc = Catalogue.per_layer)

let () =
  test_strings ();
  test_numbers ();
  test_result_line ();
  test_benchmark_json ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench: all checks passed"
