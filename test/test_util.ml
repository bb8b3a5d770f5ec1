(* Tests for the util substrate: integer math, the deterministic RNG,
   statistics, the indexed binary heap, the intrusive list and JSON. *)

open Alcotest

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

(* ------------------------------------------------------------------ *)
(* Intmath *)

let test_ceil_div () =
  check int "7/2" 4 (Util.Intmath.ceil_div 7 2);
  check int "8/2" 4 (Util.Intmath.ceil_div 8 2);
  check int "0/5" 0 (Util.Intmath.ceil_div 0 5);
  check int "1/5" 1 (Util.Intmath.ceil_div 1 5)

let test_ceil_log2 () =
  check int "1" 0 (Util.Intmath.ceil_log2 1);
  check int "2" 1 (Util.Intmath.ceil_log2 2);
  check int "3" 2 (Util.Intmath.ceil_log2 3);
  check int "8" 3 (Util.Intmath.ceil_log2 8);
  check int "9" 4 (Util.Intmath.ceil_log2 9);
  check int "1024" 10 (Util.Intmath.ceil_log2 1024)

let test_gcd_lcm () =
  check int "gcd 12 18" 6 (Util.Intmath.gcd 12 18);
  check int "gcd 7 13" 1 (Util.Intmath.gcd 7 13);
  check int "gcd 0 5" 5 (Util.Intmath.gcd 0 5);
  check int "lcm 4 6" 12 (Util.Intmath.lcm 4 6);
  check int "lcm 0 9" 0 (Util.Intmath.lcm 0 9);
  check int "lcm_list" 40 (Util.Intmath.lcm_list [ 4; 5; 8; 10 ]);
  check int "lcm_list empty" 1 (Util.Intmath.lcm_list [])

let test_pow_clamp () =
  check int "2^10" 1024 (Util.Intmath.pow 2 10);
  check int "5^0" 1 (Util.Intmath.pow 5 0);
  check int "clamp low" 3 (Util.Intmath.clamp ~lo:3 ~hi:9 1);
  check int "clamp high" 9 (Util.Intmath.clamp ~lo:3 ~hi:9 12);
  check int "clamp mid" 5 (Util.Intmath.clamp ~lo:3 ~hi:9 5)

let prop_ceil_div =
  qtest "ceil_div matches float ceiling"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 1_000))
    (fun (a, b) ->
      Util.Intmath.ceil_div a b
      = int_of_float (ceil (float_of_int a /. float_of_int b)))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Util.Rng.create ~seed:5 and b = Util.Rng.create ~seed:5 in
  for _ = 1 to 100 do
    check int64 "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let test_rng_split_stability () =
  (* A child stream must not depend on how much the parent consumed
     after the split... and split i is reproducible. *)
  let parent = Util.Rng.create ~seed:9 in
  let child1 = Util.Rng.split parent 3 in
  let v1 = Util.Rng.bits64 child1 in
  let parent2 = Util.Rng.create ~seed:9 in
  let child2 = Util.Rng.split parent2 3 in
  check int64 "split reproducible" v1 (Util.Rng.bits64 child2);
  let other = Util.Rng.split parent2 4 in
  check bool "distinct children differ" true
    (Util.Rng.bits64 other <> Util.Rng.bits64 (Util.Rng.split parent2 3))

let test_rng_ranges () =
  let rng = Util.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Util.Rng.int rng 10 in
    check bool "int in range" true (x >= 0 && x < 10);
    let y = Util.Rng.int_in rng ~lo:5 ~hi:9 in
    check bool "int_in range" true (y >= 5 && y <= 9);
    let f = Util.Rng.float rng 2.0 in
    check bool "float range" true (f >= 0.0 && f < 2.0)
  done

let test_rng_copy () =
  let a = Util.Rng.create ~seed:33 in
  ignore (Util.Rng.bits64 a);
  let b = Util.Rng.copy a in
  check int64 "copy continues identically" (Util.Rng.bits64 a)
    (Util.Rng.bits64 b)

let test_rng_shuffle_choose () =
  let rng = Util.Rng.create ~seed:2 in
  let a = Array.init 50 Fun.id in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (array int) "shuffle is a permutation" (Array.init 50 Fun.id) sorted;
  let c = Util.Rng.choose rng [| 7 |] in
  check int "choose singleton" 7 c

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Util.Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check (float 1e-9) "mean" 2.5 s.mean;
  check (float 1e-9) "min" 1.0 s.min;
  check (float 1e-9) "max" 4.0 s.max;
  check int "n" 4 s.n;
  check (float 1e-6) "stddev" 1.2909944487 s.stddev

let test_stats_fit () =
  (* exact line: y = 3 + 2x *)
  let pts = List.map (fun x -> (float_of_int x, 3.0 +. (2.0 *. float_of_int x))) [ 0; 1; 2; 5; 9 ] in
  let fit = Util.Stats.fit_linear pts in
  check (float 1e-9) "intercept" 3.0 fit.intercept;
  check (float 1e-9) "slope" 2.0 fit.slope;
  check (float 1e-9) "r2" 1.0 fit.r2

let test_stats_percentile () =
  let xs = [ 5.; 1.; 3.; 2.; 4. ] in
  check (float 1e-9) "p0" 1.0 (Util.Stats.percentile xs 0.0);
  check (float 1e-9) "p50" 3.0 (Util.Stats.percentile xs 0.5);
  check (float 1e-9) "p100" 5.0 (Util.Stats.percentile xs 1.0)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let prop_heapsort =
  qtest "pqueue pops in sorted order"
    QCheck2.Gen.(list_size (int_bound 200) int)
    (fun xs ->
      let q = Util.Pqueue.create ~cmp:compare () in
      List.iter (fun x -> ignore (Util.Pqueue.add q x)) xs;
      Util.Pqueue.check q;
      let rec drain acc =
        match Util.Pqueue.pop q with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let prop_remove =
  qtest "pqueue remove excludes exactly the removed handles"
    QCheck2.Gen.(list_size (int_range 1 100) (pair int bool))
    (fun xs ->
      let q = Util.Pqueue.create ~cmp:compare () in
      let handles = List.map (fun (x, keep) -> (Util.Pqueue.add q x, keep)) xs in
      List.iter
        (fun (h, keep) -> if not keep then assert (Util.Pqueue.remove q h))
        handles;
      Util.Pqueue.check q;
      let kept = List.filter_map (fun ((x : int), keep) -> if keep then Some x else None) xs in
      let rec drain acc =
        match Util.Pqueue.pop q with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare kept)

let test_pqueue_handles () =
  let q = Util.Pqueue.create ~cmp:compare () in
  let h1 = Util.Pqueue.add q 5 in
  let h2 = Util.Pqueue.add q 3 in
  check bool "in_heap" true (Util.Pqueue.in_heap h1);
  check int "value" 5 (Util.Pqueue.value h1);
  check bool "remove ok" true (Util.Pqueue.remove q h1);
  check bool "remove again fails" false (Util.Pqueue.remove q h1);
  check bool "h1 out" false (Util.Pqueue.in_heap h1);
  check (option int) "peek" (Some 3) (Util.Pqueue.peek q);
  check (option int) "pop" (Some 3) (Util.Pqueue.pop q);
  check bool "h2 out after pop" false (Util.Pqueue.in_heap h2);
  check bool "empty" true (Util.Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Dlist *)

let test_dlist_basic () =
  let l = Util.Dlist.create () in
  check bool "empty" true (Util.Dlist.is_empty l);
  let n1 = Util.Dlist.push_back l 1 in
  let n3 = Util.Dlist.push_back l 3 in
  let _n2 = Util.Dlist.insert_before l n3 2 in
  let n0 = Util.Dlist.push_front l 0 in
  Util.Dlist.check l;
  check (list int) "order" [ 0; 1; 2; 3 ] (Util.Dlist.to_list l);
  check int "length" 4 (Util.Dlist.length l);
  Util.Dlist.remove l n1;
  check (list int) "after remove" [ 0; 2; 3 ] (Util.Dlist.to_list l);
  check bool "mem removed" false (Util.Dlist.mem l n1);
  check bool "mem kept" true (Util.Dlist.mem l n0);
  Util.Dlist.check l

let test_dlist_swap_adjacent () =
  let l = Util.Dlist.create () in
  let a = Util.Dlist.push_back l 'a' in
  let b = Util.Dlist.push_back l 'b' in
  let _c = Util.Dlist.push_back l 'c' in
  Util.Dlist.swap l a b;
  Util.Dlist.check l;
  check (list char) "adjacent swap" [ 'b'; 'a'; 'c' ] (Util.Dlist.to_list l);
  Util.Dlist.swap l a b;
  check (list char) "swap back" [ 'a'; 'b'; 'c' ] (Util.Dlist.to_list l)

let test_dlist_swap_distant () =
  let l = Util.Dlist.create () in
  let nodes = List.map (Util.Dlist.push_back l) [ 0; 1; 2; 3; 4 ] in
  let n0 = List.nth nodes 0 and n4 = List.nth nodes 4 in
  Util.Dlist.swap l n0 n4;
  Util.Dlist.check l;
  check (list int) "distant swap" [ 4; 1; 2; 3; 0 ] (Util.Dlist.to_list l);
  (* node identity preserved: removing n0 removes the value 0 *)
  Util.Dlist.remove l n0;
  check (list int) "identity preserved" [ 4; 1; 2; 3 ] (Util.Dlist.to_list l)

let prop_dlist_model =
  (* random front/back pushes against a plain-list model *)
  qtest "dlist matches a list model"
    QCheck2.Gen.(list_size (int_bound 100) (pair bool small_int))
    (fun ops ->
      let l = Util.Dlist.create () in
      let model = ref [] in
      List.iter
        (fun (front, x) ->
          if front then begin
            ignore (Util.Dlist.push_front l x);
            model := x :: !model
          end
          else begin
            ignore (Util.Dlist.push_back l x);
            model := !model @ [ x ]
          end)
        ops;
      Util.Dlist.check l;
      Util.Dlist.to_list l = !model)

let test_dlist_navigation () =
  let l = Util.Dlist.create () in
  let a = Util.Dlist.push_back l 1 in
  let b = Util.Dlist.push_back l 2 in
  check bool "first" true
    (match Util.Dlist.first l with Some n -> n == a | None -> false);
  check bool "last" true
    (match Util.Dlist.last l with Some n -> n == b | None -> false);
  check bool "next" true
    (match Util.Dlist.next l a with Some n -> n == b | None -> false);
  check bool "prev of first" true (Util.Dlist.prev l a = None);
  check bool "find" true
    (match Util.Dlist.find_node (fun v -> v = 2) l with
    | Some n -> n == b
    | None -> false);
  check bool "exists" true (Util.Dlist.exists (fun v -> v = 1) l);
  check int "fold" 3 (Util.Dlist.fold ( + ) 0 l)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let test_tablefmt () =
  let t = Util.Tablefmt.create ~headers:[ "a"; "bb" ] in
  Util.Tablefmt.add_row t [ "1"; "22" ];
  Util.Tablefmt.add_rule t;
  Util.Tablefmt.add_row t [ "333"; "4" ];
  let s = Util.Tablefmt.render t in
  check bool "contains header" true (String.length s > 0);
  check bool "rejects bad row" true
    (try
       Util.Tablefmt.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true);
  check string "cell_f" "1.50" (Util.Tablefmt.cell_f 1.5);
  check string "cell_i" "42" (Util.Tablefmt.cell_i 42)

(* ------------------------------------------------------------------ *)
(* Json *)

(* strings of valid UTF-8 biased towards what needs escaping: control
   characters, quote, backslash, DEL and multi-byte code points *)
let gen_json_string =
  let open QCheck2.Gen in
  let uchar =
    oneof
      [ int_range 0 0x1f; int_range 0x20 0x7f; oneofl [ 0x22; 0x5c ];
        int_range 0x80 0xd7ff; int_range 0xe000 0x10ffff ]
  in
  let utf8 us =
    let b = Buffer.create 16 in
    List.iter (fun u -> Buffer.add_utf_8_uchar b (Uchar.of_int u)) us;
    Buffer.contents b
  in
  map utf8 (list_size (int_bound 12) uchar)

let gen_json =
  let open QCheck2.Gen in
  let open Util.Json in
  let finite f = Float (if Float.is_finite f then f else 0.1) in
  let leaf =
    oneof
      [ pure Null; map (fun b -> Bool b) bool; map (fun i -> Int i) int; map finite float;
        map (fun s -> String s) gen_json_string ]
  in
  sized
  @@ fix (fun self n ->
         let sub g = list_size (int_bound 4) g in
         if n <= 1 then leaf
         else
           oneof
             [ leaf; map (fun l -> List l) (sub (self (n / 4)));
               map (fun kv -> Obj kv) (sub (pair gen_json_string (self (n / 4)))) ])

let prop_json_roundtrip =
  qtest "json: of_string (to_string v) = v" gen_json (fun v ->
      Util.Json.of_string (Util.Json.to_string v) = Ok v)

let test_json_printer () =
  check string "escapes" "\"na\xc3\xafve\\u0001\\u000a\\\"\\ufffd\""
    (Util.Json.to_string (String "na\xc3\xafve\x01\n\"\xff"));
  check string "integral float stays a float" "[1.0,0.1,-2.5e-07,null]"
    (Util.Json.to_string (List [ Float 1.; Float 0.1; Float (-2.5e-7); Float Float.nan ]))

let test_json_rejects () =
  let rejects s = Result.is_error (Util.Json.of_string s) in
  check bool "accepts object" false (rejects {|{"a":[1,2.5,-3e4],"b":"x\"y","c":null}|});
  check bool "rejects trailing junk" true (rejects "{}g");
  check bool "rejects bare comma" true (rejects "[1,]");
  check bool "rejects unclosed string" true (rejects {|{"a":"b}|});
  check bool "rejects raw control character" true (rejects "[\"a\x01b\"]")

let suite =
  [
    test_case "intmath: ceil_div" `Quick test_ceil_div;
    test_case "intmath: ceil_log2" `Quick test_ceil_log2;
    test_case "intmath: gcd/lcm" `Quick test_gcd_lcm;
    test_case "intmath: pow/clamp" `Quick test_pow_clamp;
    prop_ceil_div;
    test_case "rng: determinism" `Quick test_rng_determinism;
    test_case "rng: split stability" `Quick test_rng_split_stability;
    test_case "rng: ranges" `Quick test_rng_ranges;
    test_case "rng: copy" `Quick test_rng_copy;
    test_case "rng: shuffle/choose" `Quick test_rng_shuffle_choose;
    test_case "stats: summary" `Quick test_stats_summary;
    test_case "stats: exact linear fit" `Quick test_stats_fit;
    test_case "stats: percentile" `Quick test_stats_percentile;
    prop_heapsort;
    prop_remove;
    test_case "pqueue: handles" `Quick test_pqueue_handles;
    test_case "dlist: basics" `Quick test_dlist_basic;
    test_case "dlist: adjacent swap" `Quick test_dlist_swap_adjacent;
    test_case "dlist: distant swap" `Quick test_dlist_swap_distant;
    prop_dlist_model;
    test_case "dlist: navigation" `Quick test_dlist_navigation;
    test_case "tablefmt: render" `Quick test_tablefmt;
    prop_json_roundtrip;
    test_case "json: printer escapes" `Quick test_json_printer;
    test_case "json: rejects malformed input" `Quick test_json_rejects;
  ]
