(** Minimal JSON support (no external dependency): the string escaper
    shared by every JSON emitter, and a strict reader used by the
    [mascc bench diff] regression gate. Objects keep field order;
    numbers parse to [float], exact for integer cycle counts. *)

(** The body of a JSON string literal for [s], without the quotes.
    Double quote, backslash, newline, tab and carriage return get their
    short escapes; every other control character becomes [\u00XX]. *)
val escape : string -> string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

(** Field lookup on an [Obj]; [None] on missing field or non-object. *)
val member : string -> t -> t option

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
