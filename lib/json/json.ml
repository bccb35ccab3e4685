type t =
  | Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

type error = { offset : int; message : string }

exception Fail of error

let error_to_string e = Printf.sprintf "%s at offset %d" e.message e.offset

(* Deeper input is rejected rather than recursed into. *)
let max_depth = 512

let parse text =
  let n = String.length text and pos = ref 0 in
  let fail ?(at = !pos) message = raise (Fail { offset = at; message }) in
  let next_is c = !pos < n && Char.equal text.[!pos] c in
  let found () = if !pos < n then Printf.sprintf "%C" text.[!pos] else "end of input" in
  let eat c =
    if next_is c then incr pos else fail (Printf.sprintf "expected '%c', found %s" c (found ()))
  in
  let skip_ws () =
    while next_is ' ' || next_is '\t' || next_is '\n' || next_is '\r' do incr pos done
  in
  let literal word v =
    let m = String.length word in
    if !pos + m > n || not (String.equal (String.sub text !pos m) word) then
      fail ("invalid literal, expected " ^ word);
    pos := !pos + m;
    v
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit i =
      match text.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> fail ~at:(!pos + i) (Printf.sprintf "bad \\u escape: %C is not a hex digit" c)
    in
    let code = List.fold_left (fun code i -> (code lsl 4) lor digit i) 0 [ 0; 1; 2; 3 ] in
    pos := !pos + 4;
    code
  in
  (* After "\u": a high surrogate takes the low one escaped after it; a
     lone surrogate reads as U+FFFD. *)
  let code_point () =
    let high = hex4 () in
    let resume = !pos in
    let escaped_u = next_is '\\' && !pos + 1 < n && Char.equal text.[!pos + 1] 'u' in
    if high land 0xFC00 <> 0xD800 then high
    else
      let low = if escaped_u then (pos := !pos + 2; hex4 ()) else 0 in
      if low land 0xFC00 = 0xDC00 then 0x10000 + ((high - 0xD800) lsl 10) + (low - 0xDC00)
      else (pos := resume; 0xFFFD)
  in
  let string () =
    eat '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' when !pos >= n -> fail "unterminated escape"
      | '\\' ->
          let e = text.[!pos] in
          incr pos;
          (match (String.index_opt "\"\\/bfnrt" e, e) with
          | Some i, _ -> Buffer.add_char buf "\"\\/\b\012\n\r\t".[i]
          | None, 'u' ->
              let code = code_point () in
              let u = if Uchar.is_valid code then Uchar.of_int code else Uchar.rep in
              Buffer.add_utf_8_uchar buf u
          | None, e -> fail ~at:(!pos - 1) (Printf.sprintf "bad escape %C" e));
          loop ()
      | c when Char.code c < 0x20 -> fail ~at:(!pos - 1) "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  (* RFC 8259's grammar; whatever it accepts [float_of_string] reads (an
     out-of-range exponent gives an infinity). *)
  let number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while !pos < n && text.[!pos] >= '0' && text.[!pos] <= '9' do incr pos done;
      if !pos = first then fail (Printf.sprintf "expected a digit, found %s" (found ()))
    in
    if next_is '-' then incr pos;
    if next_is '0' then incr pos else digits ();
    if next_is '.' then (incr pos; digits ());
    if next_is 'e' || next_is 'E' then begin
      incr pos;
      if next_is '+' || next_is '-' then incr pos;
      digits ()
    end;
    Num (float_of_string (String.sub text start (!pos - start)))
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match text.[!pos] with
    | '{' ->
        incr pos;
        let member () =
          skip_ws ();
          let key = string () in
          skip_ws ();
          eat ':';
          (key, value (depth + 1))
        in
        Obj (items '}' member)
    | '[' ->
        incr pos;
        Arr (items ']' (fun () -> value (depth + 1)))
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  (* The comma-separated items of an array or object up to [close]. *)
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    let rec more acc =
      let acc = item () :: acc in
      skip_ws ();
      if next_is ',' then (incr pos; more acc)
      else if next_is close then (incr pos; List.rev acc)
      else fail (Printf.sprintf "expected ',' or '%c', found %s" close (found ()))
    in
    if next_is close then (incr pos; []) else more []
  in
  match value 0 with
  | v ->
      skip_ws ();
      if !pos = n then Ok v else Error { offset = !pos; message = "trailing input after the value" }
  | exception Fail e -> Error e

let float_to_string f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
  in
  shortest 15

let fixed digits x = Num (float_of_string (Printf.sprintf "%.*f" digits x))

let to_string v =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let add_string s =
    add "\"";
    String.iter
      (function
        | '"' -> add "\\\""
        | '\\' -> add "\\\\"
        | '\n' -> add "\\n"
        | '\t' -> add "\\t"
        | '\r' -> add "\\r"
        | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
        | c -> Buffer.add_char buf c)
      s;
    add "\""
  in
  let container = function Arr _ | Obj _ -> true | Null | Bool _ | Num _ | Str _ -> false in
  let rec value ~root indent = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Num f -> add (if Float.is_finite f then float_to_string f else "null")
    | Str s -> add_string s
    | Arr items -> members ~root indent "[" "]" (List.map (fun x -> (None, x)) items)
    | Obj fields -> members ~root indent "{" "}" (List.map (fun (k, x) -> (Some k, x)) fields)
  (* One member per line for the root and any container holding a
     container; any other container on one line. *)
  and members ~root indent opening closing items =
    let multiline = root || List.exists (fun (_, x) -> container x) items in
    let inner = indent ^ "  " in
    add opening;
    List.iteri
      (fun i (key, x) ->
        if i > 0 then add ",";
        if multiline then add ("\n" ^ inner) else if i > 0 then add " ";
        Option.iter (fun k -> add_string k; add ": ") key;
        value ~root:false inner x)
      items;
    if multiline && not (List.is_empty items) then add ("\n" ^ indent);
    add closing
  in
  value ~root:true "" v;
  Buffer.contents buf

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
