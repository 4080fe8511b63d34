type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_repr x =
  if not (Float.is_finite x) then "null" (* nan/inf have no JSON spelling *)
  else
    let s = Printf.sprintf "%.12g" x in
    (* keep the token a float so readers round-trip the type *)
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_fail of int * string

let utf8_of_code buf u =
  (* encode one Unicode scalar value as UTF-8 *)
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           let u = hex4 () in
           (* combine surrogate pairs; a lone surrogate becomes U+FFFD *)
           if u >= 0xD800 && u <= 0xDBFF then begin
             if
               !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo >= 0xDC00 && lo <= 0xDFFF then
                 utf8_of_code buf
                   (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
               else begin
                 utf8_of_code buf 0xFFFD;
                 utf8_of_code buf lo
               end
             end
             else utf8_of_code buf 0xFFFD
           end
           else if u >= 0xDC00 && u <= 0xDFFF then utf8_of_code buf 0xFFFD
           else utf8_of_code buf u
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    (* integer part: "0" or a nonzero-led digit run — "01" is invalid *)
    let d0 = !pos in
    digits ();
    if !pos - d0 > 1 && s.[d0] = '0' then fail "leading zero in number";
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> Float (float_of_string tok) (* out of int range *)
  in
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep";
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
        List []
      end
      else begin
        let items = ref [] in
        let rec elems () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elems ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_fail (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
  | exception Failure msg ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" !pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let as_str = function Str s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_int = function Int i -> Some i | _ -> None

let as_float = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let as_list = function List l -> Some l | _ -> None


let mem_str k v = Option.bind (member k v) as_str
let mem_int k v = Option.bind (member k v) as_int
let mem_float k v = Option.bind (member k v) as_float

let to_string v =
  let buf = Buffer.create 1024 in
  let rec emit indent v =
    let pad n = String.make (2 * n) ' ' in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> Buffer.add_string buf (float_repr x)
    | Str s -> Buffer.add_string buf (escape s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          emit (indent + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          Buffer.add_string buf (escape k);
          Buffer.add_string buf ": ";
          emit (indent + 1) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf
