(* Output checks.  Each returns [Ok ()] or [Error why].  Every check
   compares against a computation made apart from the code under test
   (the library in-process, the plain-tensor interpreter, the greedy
   assignment) or against a property the method must have; none
   compares against a stored copy of earlier output. *)

let ( let* ) = Result.bind

(* The messages of the failed checks among [results]. *)
let failures results = List.filter_map (function Ok () -> None | Error e -> Some e) results

let all checks = List.fold_left (fun acc c -> match acc with Ok () -> c () | e -> e) (Ok ()) checks

(* ["OK k=v k=v ..."] -> [(k, v)] pairs. *)
let fields reply =
  String.split_on_char ' ' reply
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | None -> None
         | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))

let is_ok reply = String.length reply >= 3 && String.sub reply 0 3 = "OK "

let field reply k =
  match List.assoc_opt k (fields reply) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "reply lacks %s: %S" k reply)

let int_field reply k =
  let* v = field reply k in
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s=%s is not an integer in %S" k v reply)

let ok_reply reply = if is_ok reply then Ok () else Error (Printf.sprintf "error reply %S" reply)

(* The reply fields an ENGINE request must carry, computed by the
   library in-process for the same request. *)
let engine_fields machine (r : Tir.Engine.result) =
  [
    ("time", Printf.sprintf "%.0f" (Tir.Engine.time machine r));
    ("converts", string_of_int r.Tir.Engine.converts);
    ("noops", string_of_int r.Tir.Engine.noop_converts);
    ("loads", string_of_int r.Tir.Engine.local_loads);
    ("stores", string_of_int r.Tir.Engine.local_stores);
    ("remats", string_of_int r.Tir.Engine.remats);
    ("unsupported", string_of_int (List.length r.Tir.Engine.unsupported));
  ]

let engine_reply machine r reply =
  let* () = ok_reply reply in
  all
    (List.map
       (fun (k, want) () ->
         let* got = field reply k in
         if String.equal got want then Ok ()
         else Error (Printf.sprintf "ENGINE %s=%s, in-process engine says %s" k got want))
       (engine_fields machine r))

(* A PLAN reply must carry a proved certificate and the mechanism the
   in-process planner picks for the same key. *)
let plan_reply ~mechanism reply =
  let* () = ok_reply reply in
  let* cert = field reply "cert" in
  let* mech = field reply "mechanism" in
  if not (String.equal cert "proved") then Error (Printf.sprintf "PLAN cert=%s" cert)
  else if not (String.equal mech mechanism) then
    Error (Printf.sprintf "PLAN mechanism=%s, in-process planner picks %s" mech mechanism)
  else Ok ()

let certificate (c : Analysis.Transval.cert) =
  match c.Analysis.Transval.verdict with
  | Analysis.Transval.Proved -> Ok ()
  | Analysis.Transval.Refuted r ->
      Error
        (Printf.sprintf "%s plan refuted at destination point %d" c.Analysis.Transval.mechanism
           r.Analysis.Transval.counterexample)
  | Analysis.Transval.Failed m ->
      Error (Printf.sprintf "%s plan not certified: %s" c.Analysis.Transval.mechanism m)

let supported (r : Tir.Engine.result) =
  match r.Tir.Engine.unsupported with
  | [] -> Ok ()
  | us -> Error ("linear engine reports unsupported: " ^ String.concat ", " us)

(* Beam search keeps the greedy root in its short-list, so its winner
   is never above the greedy objective. *)
let search_winner ~greedy ~winner =
  if winner <= greedy then Ok ()
  else Error (Printf.sprintf "search winner objective %.17g above greedy %.17g" winner greedy)

(* Layout-level evaluation must equal plain-tensor evaluation, store
   by store and element by element. *)
let outputs ~(reference : Tir.Interp.outputs) ~(got : Tir.Interp.outputs) =
  if List.length reference <> List.length got then
    Error
      (Printf.sprintf "%d stores through layouts, %d in the reference" (List.length got)
         (List.length reference))
  else
    all
      (List.map2
         (fun (id_r, t_r) (id_g, t_g) () ->
           if id_r <> id_g then Error (Printf.sprintf "store %d evaluated as %d" id_r id_g)
           else if Tensor_lib.Tensor.equal t_r t_g then Ok ()
           else Error (Printf.sprintf "store %d differs from the plain-tensor reference" id_r))
         reference got)

(* [STATS] across the timed phase of a warm daemon: nothing rejected
   at load, nothing re-planned, no error replies, and every request
   counted under its verb. *)
let stats_delta ~before ~after ~plans ~engines =
  let delta k =
    let* a = int_field after k in
    let* b = int_field before k in
    Ok (a - b)
  in
  let expect what got want =
    if got = want then Ok () else Error (Printf.sprintf "STATS %s %d, expected %d" what got want)
  in
  all
    [
      (fun () ->
        let* r = int_field after "store_rejected" in
        expect "store_rejected" r 0);
      (fun () ->
        let* d = delta "shared_misses" in
        expect "shared_misses delta (planner invocations on a warm start)" d 0);
      (fun () ->
        let* d = delta "errors" in
        expect "errors delta" d 0);
      (fun () ->
        let* d = delta "plan" in
        expect "plan delta" d plans);
      (fun () ->
        let* d = delta "engine" in
        expect "engine delta" d engines);
    ]

(* Determinism: an exact count must read the same in every round and
   every run of one seed. *)
let same_count ~what ~expected got =
  if expected = got then Ok ()
  else Error (Printf.sprintf "%s is %d, but %d in an earlier round or run of this seed" what got expected)
