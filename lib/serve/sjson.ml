type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    (* the shortest of %.15g/%.16g/%.17g that reads back as the same
       float: %.17g alone prints 0.1 as 0.10000000000000001 *)
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || float_of_string s = f then s else shortest (p + 1)
    in
    Buffer.add_string b (shortest 15)
  else Buffer.add_string b "null" (* JSON has no inf/nan *)

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> add_num b f
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* Deeper input is rejected rather than risking the stack: nothing
   this repo prints nests more than a handful of levels. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("bad literal, expected " ^ word)
  in
  let is_digit c = c >= '0' && c <= '9' in
  (* the 4 hex digits of a \u escape, with [pos] on the 'u'; leaves
     [pos] on the last digit *)
  let hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = 1 to 4 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let code = hex4 () in
              if code >= 0xDC00 && code <= 0xDFFF then fail "lone low surrogate"
              else if code >= 0xD800 && code <= 0xDBFF then begin
                (* a high surrogate must pair with a following low one
                   into one supplementary code point *)
                if !pos + 2 >= n || s.[!pos + 1] <> '\\' || s.[!pos + 2] <> 'u'
                then fail "lone high surrogate";
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
                Buffer.add_utf_8_uchar b
                  (Uchar.of_int (0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)))
              end
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && is_digit s.[!pos] do
        advance ()
      done;
      if !pos = d0 then fail "bad number"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some c when is_digit c -> digits ()
    | _ -> fail "bad number");
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let items = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := field () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Builders and accessors                                              *)
(* ------------------------------------------------------------------ *)

let num f = Num f
let int i = Num (float_of_int i)
let str s = Str s

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_str ?(default = "") = function Str s -> s | _ -> default
let to_float ?(default = 0.) = function Num f -> f | _ -> default
let to_int ?(default = 0) = function
  | Num f -> int_of_float f
  | _ -> default
let to_bool ?(default = false) = function Bool b -> b | _ -> default
let to_list = function Arr xs -> xs | _ -> []
