let max_head_bytes = 16 * 1024
let max_body_bytes = 1024 * 1024

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

let reason = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | c -> if c >= 200 && c < 300 then "OK" else "Error"

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
      | Some h, Some l ->
        Buffer.add_char buf (Char.chr ((h * 16) + l));
        i := !i + 2
      | _ -> Buffer.add_char buf '%')
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some q ->
    let path = String.sub target 0 q in
    let rest = String.sub target (q + 1) (String.length target - q - 1) in
    let params =
      String.split_on_char '&' rest
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (percent_decode kv, "")
               | Some e ->
                 Some
                   ( percent_decode (String.sub kv 0 e),
                     percent_decode
                       (String.sub kv (e + 1) (String.length kv - e - 1)) ))
    in
    (percent_decode path, params)

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> Result.Error ("malformed header line: " ^ line)
  | Some c ->
    let name = String.lowercase_ascii (String.trim (String.sub line 0 c)) in
    let value =
      String.trim (String.sub line (c + 1) (String.length line - c - 1))
    in
    Result.Ok (name, value)

let rec parse_headers acc = function
  | [] -> Result.Ok (List.rev acc)
  | l :: rest -> (
    match parse_header_line l with
    | Result.Ok kv -> parse_headers (kv :: acc) rest
    | Result.Error _ as e -> e)

(* Offset and length of the blank line that ends a head: CRLF CRLF, or
   bare LF LF as hand-typed netcat sends it, wherever either comes first
   in [s] (the last two bytes included). *)
let find_blank s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i, 2)
    else if
      i + 3 < n && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
      && s.[i + 3] = '\n'
    then Some (i, 4)
    else go (i + 1)
  in
  go 0

(* The non-empty lines of a head (everything before the blank line),
   CRLF-separated with bare LF tolerated. *)
let head_lines head =
  String.split_on_char '\n' head
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)
  |> List.filter (fun l -> l <> "")

let parse_head head =
  match head_lines head with
  | [] -> Result.Error "empty request head"
  | request_line :: header_lines -> (
    match String.split_on_char ' ' request_line with
    | [ meth; target; version ]
      when meth <> "" && target <> ""
           && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
      Result.map
        (fun hs ->
          let path, query = split_target target in
          { meth; path; query; version; headers = hs; body = "" })
        (parse_headers [] header_lines)
    | _ -> Result.Error ("malformed request line: " ^ request_line))

let content_length req =
  match header req "content-length" with
  | None -> Result.Ok 0
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 0 -> Result.Ok n
    | _ -> Result.Error ("bad content-length: " ^ v))

(* Pure whole-request parser for tests: [s] holds the complete request
   bytes; the body must match content-length exactly. *)
let parse_request s =
  match find_blank s with
  | None -> Result.Error "no end of head (blank line) found"
  | Some (head_end, sep) -> (
    match parse_head (String.sub s 0 head_end) with
    | Result.Error _ as e -> e
    | Result.Ok req -> (
      match content_length req with
      | Result.Error _ as e -> e
      | Result.Ok len ->
        let body_start = head_end + sep in
        if String.length s - body_start <> len then
          Result.Error "body length does not match content-length"
        else Result.Ok { req with body = String.sub s body_start len }))

(* ------------------------------------------------------------------ *)
(* Socket I/O                                                          *)
(* ------------------------------------------------------------------ *)

type read_result =
  | Request of request
  | Malformed of string  (* respond 400 and close *)
  | Oversized of string  (* respond 413 and close *)
  | Eof                  (* peer closed (or timed out) between requests *)

(* Read one request from [fd].  Returns [Eof] on a clean close before any
   byte of the next request; a close mid-request is [Malformed]. *)
let read_request fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let recv () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> 0
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      n
    | exception
        Unix.Unix_error
          ((Unix.ECONNRESET | Unix.EPIPE | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      (* a receive timeout ([SO_RCVTIMEO]) ends the request like a close *)
      0
  in
  let rec read_head () =
    match find_blank (Buffer.contents buf) with
    | Some cut -> Some cut
    | None ->
      if Buffer.length buf > max_head_bytes then None
      else if recv () = 0 then None
      else read_head ()
  in
  let oversized_head () =
    Oversized (Printf.sprintf "request head exceeds %d bytes" max_head_bytes)
  in
  match read_head () with
  | None ->
    if Buffer.length buf = 0 then Eof
    else if Buffer.length buf > max_head_bytes then oversized_head ()
    else Malformed "connection closed mid-request"
  | Some (head_at, sep) when head_at + sep > max_head_bytes -> oversized_head ()
  | Some (head_at, sep) -> (
    let all = Buffer.contents buf in
    match parse_head (String.sub all 0 head_at) with
    | Result.Error e -> Malformed e
    | Result.Ok req -> (
      if header req "transfer-encoding" <> None then
        Malformed "transfer-encoding is not supported (use content-length)"
      else
        match content_length req with
        | Result.Error e -> Malformed e
        | Result.Ok len ->
          if len > max_body_bytes then
            Oversized
              (Printf.sprintf "request body exceeds %d bytes" max_body_bytes)
          else begin
            let body_start = head_at + sep in
            let have = String.length all - body_start in
            let rec fill have =
              if have >= len then true
              else if recv () = 0 then false
              else fill (Buffer.length buf - body_start)
            in
            if not (fill have) then Malformed "connection closed mid-body"
            else
              let all = Buffer.contents buf in
              Request { req with body = String.sub all body_start len }
          end))

let response_string ?(headers = []) ~status ~body () =
  let buf = Buffer.create (256 + String.length body) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  let has name =
    List.exists (fun (k, _) -> String.lowercase_ascii k = name) headers
  in
  if not (has "content-type") then
    Buffer.add_string buf "Content-Type: application/json\r\n";
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Response parsing (client side)                                      *)
(* ------------------------------------------------------------------ *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

let response_header resp name =
  List.assoc_opt (String.lowercase_ascii name) resp.r_headers

(* [s] holds the complete response bytes (the client requests
   [Connection: close], so EOF delimits); content-length, when present,
   trims trailing bytes. *)
let parse_response s =
  match find_blank s with
  | None -> Result.Error "no end of response head found"
  | Some (head_at, sep) -> (
    match head_lines (String.sub s 0 head_at) with
    | [] -> Result.Error "empty response head"
    | status_line :: header_lines -> (
      match String.split_on_char ' ' status_line with
      | version :: code :: _
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
        match int_of_string_opt code with
        | None -> Result.Error ("bad status code: " ^ code)
        | Some status ->
          Result.map
            (fun hs ->
              let body = String.sub s (head_at + sep) (String.length s - head_at - sep) in
              let body =
                match
                  Option.bind (List.assoc_opt "content-length" hs)
                    int_of_string_opt
                with
                | Some n when n >= 0 && n <= String.length body ->
                  String.sub body 0 n
                | _ -> body
              in
              { status; r_headers = hs; r_body = body })
            (parse_headers [] header_lines))
      | _ -> Result.Error ("malformed status line: " ^ status_line)))
