(* Spans recorded by the traced run around the benchmark's own calls
   into each layer's public functions.  Spans stay in memory and are
   written out, as Chrome trace-event JSON, when the run ends.  The
   library's [Obs] sink is not used: enabling it also turns on the
   spans and metrics inside the program, which the traced run leaves
   out so that it replays the same work as the timed run. *)

type span = {
  id : int;
  parent : int;  (** 0 = a root span *)
  name : string;
  start : float;  (** seconds since the tracer was created *)
  dur : float;  (** seconds *)
  thread : int;
}

type t = { lock : Mutex.t; origin : float; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); origin = Unix.gettimeofday (); next = 1; spans = [] }

(* [with_ tr ?parent name f] runs [f id] inside a span; with no tracer
   it is [f 0] and records nothing. *)
let with_ tr ?(parent = 0) name f =
  match tr with
  | None -> f 0
  | Some tr ->
      Mutex.lock tr.lock;
      let id = tr.next in
      tr.next <- id + 1;
      Mutex.unlock tr.lock;
      let t0 = Unix.gettimeofday () in
      let finish () =
        let t1 = Unix.gettimeofday () in
        let s =
          { id; parent; name; start = t0 -. tr.origin; dur = t1 -. t0; thread = Thread.id (Thread.self ()) }
        in
        Mutex.lock tr.lock;
        tr.spans <- s :: tr.spans;
        Mutex.unlock tr.lock
      in
      Fun.protect ~finally:finish (fun () -> f id)

let spans tr = List.rev tr.spans

(* Durations in ms of the spans called [name], in start order. *)
let durations_ms tr name =
  List.filter_map (fun s -> if String.equal s.name name then Some (s.dur *. 1e3) else None) (spans tr)

let write tr path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \
             \"args\": {\"id\": %d, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            (Report.json_string s.name) (s.start *. 1e6) (s.dur *. 1e6) s.thread s.id s.parent)
        (spans tr);
      output_string oc "]\n")
