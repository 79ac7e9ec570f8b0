(* The tree's one JSON reader and string escaper: just enough for the
   grammar our own writers emit (JSONL trace lines, Chrome traces,
   metrics snapshots, results lines, BENCH files, journals, supervisor
   wire frames).  Recursive descent over a string; no external
   dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { s : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  let n = String.length st.s in
  while
    st.pos < n
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
    | Some ('a' .. 'f' as c) ->
      v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
    | Some ('A' .. 'F' as c) ->
      v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
    | _ -> fail st "bad \\u escape");
    st.pos <- st.pos + 1
  done;
  !v

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let n = String.length st.s in
  let rec go () =
    (* Copy the run of plain characters in one go: wire frames carry
       kilobytes of hex per string. *)
    let start = st.pos in
    while st.pos < n && st.s.[st.pos] <> '"' && st.s.[st.pos] <> '\\' do
      st.pos <- st.pos + 1
    done;
    Buffer.add_substring b st.s start (st.pos - start);
    match peek st with
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
      st.pos <- st.pos + 1;
      match peek st with
      | Some '"' -> Buffer.add_char b '"'; st.pos <- st.pos + 1; go ()
      | Some '\\' -> Buffer.add_char b '\\'; st.pos <- st.pos + 1; go ()
      | Some '/' -> Buffer.add_char b '/'; st.pos <- st.pos + 1; go ()
      | Some 'b' -> Buffer.add_char b '\b'; st.pos <- st.pos + 1; go ()
      | Some 'f' -> Buffer.add_char b '\012'; st.pos <- st.pos + 1; go ()
      | Some 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1; go ()
      | Some 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1; go ()
      | Some 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1; go ()
      | Some 'u' ->
        st.pos <- st.pos + 1;
        let v = parse_hex4 st in
        (* Our sinks only \u-escape control characters; decode the BMP
           code point as UTF-8 so round-trips are lossless. *)
        if v < 0x80 then Buffer.add_char b (Char.chr v)
        else if v < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (v lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xE0 lor (v lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
        end;
        go ()
      | _ -> fail st "bad escape")
    | _ -> fail st "unterminated string"
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let n = String.length st.s in
  let advance_while pred =
    while st.pos < n && pred st.s.[st.pos] do
      st.pos <- st.pos + 1
    done
  in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  let d0 = st.pos in
  advance_while (function '0' .. '9' -> true | _ -> false);
  if st.pos = d0 then fail st "expected digit";
  if peek st = Some '.' then begin
    st.pos <- st.pos + 1;
    let d1 = st.pos in
    advance_while (function '0' .. '9' -> true | _ -> false);
    if st.pos = d1 then fail st "expected fraction digit"
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    st.pos <- st.pos + 1;
    (match peek st with
    | Some ('+' | '-') -> st.pos <- st.pos + 1
    | _ -> ());
    let d2 = st.pos in
    advance_while (function '0' .. '9' -> true | _ -> false);
    if st.pos = d2 then fail st "expected exponent digit"
  | _ -> ());
  float_of_string (String.sub st.s start (st.pos - start))

let literal st w v =
  let n = String.length w in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = w
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st ("expected " ^ w)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | _ -> fail st "unexpected character"

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error "trailing garbage" else Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  Durable.read path (fun ic -> parse (In_channel.input_all ic))

let load path of_json =
  Result.map_error
    (fun e -> path ^ ": " ^ e)
    (Result.bind (parse_file path) of_json)

let fold_lines path ~init f =
  Result.bind (Durable.fold_log path ~init f) (fun (acc, torn) ->
      match torn with None -> Ok acc | Some (lineno, line) -> f acc lineno line)

(* Rendering — compact, stable order (field order is whatever the
   value carries), numbers as %.17g so parse/render round-trips. *)

let escape_string s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let render_num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec render = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> render_num f
  | Str s -> escape_string s
  | List l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Obj o ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> escape_string k ^ ":" ^ render v) o)
    ^ "}"

(* Accessors *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj o -> Some o | _ -> None

let float_member k j = Option.bind (member k j) to_float
let int_member k j = Option.bind (member k j) to_int
let string_member k j = Option.bind (member k j) to_string
let bool_member k j = Option.bind (member k j) to_bool
let list_member k j = Option.bind (member k j) to_list
