(** JSON values, one compact printer and one strict parser.

    Every JSON or SARIF document the libraries, the CLI and the bench
    harness emit is built as a {!t} and printed by {!to_string}, so
    escaping and layout are decided here and nowhere else. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys print in list order *)

val to_string : t -> string
(** Compact single-line JSON for any value: control characters print as
    [\uXXXX], valid UTF-8 passes through and each invalid byte becomes
    U+FFFD.  Floats print with the fewest digits that read back to the
    same value, always with a fraction or an exponent; non-finite floats
    print as [null]. *)

val of_string : string -> (t, string) result
(** Parse one RFC 8259 document.  Numbers without a fraction or
    exponent that fit an [int] become [Int], others [Float].  The error
    names the byte offset of the first violation. *)

val member : string -> t -> t option
(** The first value bound to a key of an [Obj]; [None] otherwise. *)

val int_opt : int option -> t
(** [Int i] for [Some i], [Null] for [None]. *)
