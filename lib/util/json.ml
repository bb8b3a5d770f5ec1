type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      (match s.[i] with
      | _ when not (Uchar.utf_decode_is_valid d) -> Buffer.add_string buf "\\ufffd"
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when c < ' ' || c = '\x7f' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | _ -> Buffer.add_utf_8_uchar buf (Uchar.utf_decode_uchar d));
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.add_char buf '"'

(* Shortest of %.15g..%.17g that reads back exactly; ".0" keeps an
   integral value a float for the reader. *)
let float_repr f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let seq buf op cl item l =
  Buffer.add_char buf op;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; item x) l;
  Buffer.add_char buf cl

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
  | String s -> escape buf s
  | List l -> seq buf '[' ']' (to_buffer buf) l
  | Obj kv ->
    seq buf '{' '}' (fun (k, v) -> escape buf k; Buffer.add_char buf ':'; to_buffer buf v) kv

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* -- parser: recursive descent over RFC 8259 -------------------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () = if List.mem (peek ()) [ ' '; '\n'; '\r'; '\t' ] then (incr pos; ws ()) in
  let skip c = peek () = c && (incr pos; true) in
  let eat c = ws (); if not (skip c) then fail (Printf.sprintf "expected %C" c) in
  let lit w =
    let m = String.length w in
    if !pos + m <= n && String.sub s !pos m = w then pos := !pos + m
    else fail ("expected " ^ w)
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all is_hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let uchar () =
    let u = hex4 () in
    let u =
      if u land 0xFC00 <> 0xD800 then u
      else begin
        lit "\\u";
        let lo = hex4 () in
        if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
        0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
      end
    in
    if Uchar.is_valid u then Uchar.of_int u else fail "unpaired surrogate"
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (uchar ())
        | _ -> fail "bad escape");
        go ()
      | c when c < ' ' -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while peek () >= '0' && peek () <= '9' do
        incr pos
      done;
      if !pos = d then fail "expected a digit"
    in
    ignore (skip '-');
    if not (skip '0') then digits ();
    let frac = skip '.' && (digits (); true) in
    let exp = (skip 'e' || skip 'E') && (ignore (skip '+' || skip '-'); digits (); true) in
    let l = String.sub s start (!pos - start) in
    match int_of_string_opt l with
    | Some i when not (frac || exp) -> Int i
    | _ -> Float (float_of_string l)
  in
  let items close item =
    ws ();
    if skip close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if skip ',' then go acc
        else if skip close then List.rev acc
        else fail (Printf.sprintf "expected , or %C" close)
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = str () in
             eat ':';
             (k, value ())))
    | '[' ->
      incr pos;
      List (items ']' value)
    | '"' -> String (str ())
    | 't' -> lit "true"; Bool true
    | 'f' -> lit "false"; Bool false
    | 'n' -> lit "null"; Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  in
  let v = value () in
  ws ();
  if !pos < n then fail "trailing characters";
  v

let of_string s = try Ok (parse s) with Parse_error msg -> Error msg

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let int_opt = function Some i -> Int i | None -> Null
