(* What one benchmark run hands back, and the result line it prints. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  errors : string list;  (** failed output or determinism checks; empty = correct *)
  metrics : metric list;
  notes : (string * string) list;  (** printed for people, never gated *)
}

let metric name unit_ value = { name; value; unit_ }

(* A JSON number with every digit of the double, so that no two
   measured times print alike by rounding. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg (Printf.sprintf "Report.number: %f is not a JSON number" v)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name) (number m.value)
          (json_string m.unit_))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.errors = []) r.attempted r.failed (String.concat ", " metrics)
