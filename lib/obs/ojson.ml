(* Minimal JSON support: the one string escaper every emitter shares,
   and a reader for the bench regression gate.

   The repo has no JSON dependency — emitters hand-print stable
   schemas, and tests validate shape with a hand-rolled checker. The
   bench diff gate is the first consumer that must *read* JSON, so
   this is a small strict recursive-descent parser: objects keep field
   order, numbers parse to float (exact for the integer cycle counts
   the gate compares bit-identically). *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> error st (Printf.sprintf "expected '%c', found '%c'" c c')
  | None -> error st (Printf.sprintf "expected '%c', found end of input" c)

let lit st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected '%s'" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string"
    else
      let c = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        (if st.pos >= String.length st.src then error st "unterminated escape"
         else
           let e = st.src.[st.pos] in
           st.pos <- st.pos + 1;
           match e with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
             if st.pos + 4 > String.length st.src then
               error st "truncated \\u escape"
             else begin
               let hex = String.sub st.src st.pos 4 in
               st.pos <- st.pos + 4;
               match int_of_string_opt ("0x" ^ hex) with
               | None -> error st "bad \\u escape"
               | Some code ->
                 (* raw codepoint for the ASCII range, '?' beyond: the
                    gate only reads identifiers and numbers *)
                 if code < 0x80 then Buffer.add_char b (Char.chr code)
                 else Buffer.add_char b '?'
             end
           | _ -> error st "unknown escape");
        go ()
      | c -> Buffer.add_char b c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let numchar c =
    (c >= '0' && c <= '9')
    || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while st.pos < String.length st.src && numchar st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> error st (Printf.sprintf "bad number '%s'" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin st.pos <- st.pos + 1; Obj [] end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; go ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> error st "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin st.pos <- st.pos + 1; Arr [] end
    else begin
      let items = ref [] in
      let rec go () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; go ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> error st "expected ',' or ']'"
      in
      go ();
      Arr (List.rev !items)
    end
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing input at byte %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_arr = function Arr l -> Some l | _ -> None
