(** Minimal HTTP/1.1 over [Unix] file descriptors — no external deps.

    Exactly what the service front door needs and nothing more: request
    heads with [Content-Length] bodies (no chunked transfer encoding),
    percent-decoded paths and query strings, bounded head/body sizes so a
    misbehaving client cannot balloon the daemon, and plain string
    serialization of responses.  The pure parsers ({!parse_request},
    {!parse_response}) are exposed for unit tests; {!read_request} runs
    the same grammar incrementally over a socket. *)

val max_head_bytes : int
(** Cap on the head: request line, headers and the blank line that ends
    them (16 KiB).  A longer head reads as [Oversized], which the server
    answers with 413 and error code [too-large]. *)

val max_body_bytes : int
(** Body cap (1 MiB).  A larger [Content-Length] reads as [Oversized]
    without the body being read; the server answers 413 and
    [too-large]. *)

type request = {
  meth : string;                      (* "GET", "POST", ... *)
  path : string;                      (* percent-decoded, query stripped *)
  query : (string * string) list;     (* percent-decoded key/value pairs *)
  version : string;                   (* "HTTP/1.1" or "HTTP/1.0" *)
  headers : (string * string) list;   (* names lowercased *)
  body : string;
}

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val reason : int -> string
(** Canonical reason phrase for a status code. *)

val parse_request : string -> (request, string) result
(** Parse one complete request (head, blank line, body); the body must
    match [Content-Length] exactly.  Pure — used by the unit tests. *)

type read_result =
  | Request of request
  | Malformed of string  (* answer 400 and close *)
  | Oversized of string  (* answer 413 and close *)
  | Eof                  (* peer closed between requests *)

val read_request : Unix.file_descr -> read_result
(** Read one request from a connection.  [Eof] only on a clean close (or
    receive timeout) before the first byte; a close mid-request is
    [Malformed].  Rejects [Transfer-Encoding]. *)

val response_string :
  ?headers:(string * string) list -> status:int -> body:string -> unit ->
  string
(** Serialize a response.  [Content-Length] is always emitted;
    [Content-Type: application/json] is added unless overridden. *)

val write_all : Unix.file_descr -> string -> unit
(** Write fully; [EPIPE]/[ECONNRESET] are swallowed (client went away). *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

val response_header : response -> string -> string option

val parse_response : string -> (response, string) result
(** Parse a complete response (the client closes connections, so EOF
    delimits; [Content-Length] trims when present). *)
