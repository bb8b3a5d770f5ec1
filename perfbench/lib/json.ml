(* A small JSON value type with a real escaper and a strict parser.

   The printer escapes every control character as \uXXXX, passes valid
   UTF-8 through unchanged and replaces invalid byte sequences with
   U+FFFD, so any OCaml string — a task name read from a spec file, a
   CPU model string — prints as valid JSON.  Floats print with the
   fewest digits that read back to the same value; non-finite floats
   print as null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_into buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go i =
    if i < n then begin
      let d = String.get_utf_8_uchar s i in
      let len = Uchar.utf_decode_length d in
      if not (Uchar.utf_decode_is_valid d) then
        Buffer.add_string buf "\\ufffd"
      else begin
        match s.[i] with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 || Char.code c = 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | _ -> Buffer.add_string buf (String.sub s i len)
      end;
      go (i + len)
    end
  in
  go 0;
  Buffer.add_char buf '"'

let float_repr f =
  let rec try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else try_prec (p + 1)
  in
  try_prec 15

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | String s -> escape_into buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      l;
    Buffer.add_char buf ']'
  | Obj kv ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      kv;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* -- parser ----------------------------------------------------------- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t')
    then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    match v with Some v -> v | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let u = hex4 () in
          let u =
            if u >= 0xD800 && u <= 0xDBFF && peek () = '\\' then begin
              incr pos;
              expect 'u';
              let lo = hex4 () in
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else u
          in
          if Uchar.is_valid u then Buffer.add_utf_8_uchar buf (Uchar.of_int u)
          else fail "invalid code point"
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) in
    match (integral, int_of_string_opt lit, float_of_string_opt lit) with
    | true, Some i, _ -> Int i
    | _, _, Some f -> Float f
    | _ -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
