(* serve-mixed: the shipped [layout_tool serve --domains 1] daemon,
   started warm from a plan store this build made, and two closed-loop
   clients replaying compile sessions in seeded order.  A session
   connects, sends PLAN for each distinct conversion the engine
   materializes for one (kernel, machine) pair across its sizes, sends
   ENGINE for each size, and closes. *)

let now = Unix.gettimeofday
let min_passes = 2
let clients = 2

type verb = Plan | Engine

type request = {
  verb : verb;
  payload : string;
  expect : string -> (unit, string) result;  (** the check of its reply *)
  replay : unit -> replayed;  (** the daemon's work for it, in this process *)
}

and replayed =
  | Planned of float  (** ms of [Transval.certify_plan] *)
  | Compiled of Tir.Pass_manager.report

type session = { label : string; requests : request list }

(* Sessions, with every expected reply computed by the library in this
   process. *)
let sessions ~seed ~limit =
  let pairs =
    match limit with
    | None -> Suite.pairs ()
    | Some k -> Suite.sample (Suite.rng ~seed ~purpose:"serve-mixed/smoke") k (Suite.pairs ())
  in
  List.map
    (fun ((k : Tir.Kernels.kernel), (m : Gpusim.Machine.t)) ->
      let results =
        List.map
          (fun size ->
            let t = { Suite.kernel = k; machine = m; size } in
            (size, Tir.Engine.run m ~mode:Tir.Engine.Linear (Suite.build t), t))
          k.Tir.Kernels.sizes
      in
      let plans = Layers.distinct_plans (List.map (fun (_, r, _) -> (m, r)) results) in
      let plan_req (_, (p : Codegen.Conversion.plan)) =
        let src = p.Codegen.Conversion.src and dst = p.Codegen.Conversion.dst in
        let byte_width = p.Codegen.Conversion.byte_width in
        {
          verb = Plan;
          payload =
            Printf.sprintf "PLAN\nmachine=%s\nsrc=%s\ndst=%s\nbyte_width=%d" m.Gpusim.Machine.name
              (Linear_layout.Parse.to_string src) (Linear_layout.Parse.to_string dst) byte_width;
          expect =
            Checks.plan_reply
              ~mechanism:(Codegen.Conversion.mechanism_slug p.Codegen.Conversion.mechanism);
          replay =
            (fun () ->
              let plan = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width in
              let (_ : Analysis.Transval.cert), s =
                Layers.time_s (fun () -> Analysis.Transval.certify_plan m plan)
              in
              Planned (s *. 1e3));
        }
      in
      let engine_req (size, r, t) =
        {
          verb = Engine;
          payload =
            Printf.sprintf "ENGINE\nkernel=%s\nmachine=%s\nmode=linear\nsize=%d" k.Tir.Kernels.name
              m.Gpusim.Machine.name size;
          expect = Checks.engine_reply m r;
          replay = (fun () -> Compiled (snd (Layers.run_pipeline m (Suite.build t))));
        }
      in
      {
        label = k.Tir.Kernels.name ^ "/" ^ m.Gpusim.Machine.name;
        requests = List.map plan_req plans @ List.map engine_req results;
      })
    pairs

(* {1 The daemon} *)

type daemon = { pid : int; socket : string }

let log_fd () =
  Unix.openfile (Proc.run_file "serve-daemon.log")
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
    0o644

(* A client connection over the daemon's public framing.  The socket
   is closed when [connect] fails and is never inherited by a process
   the benchmark spawns: a spawned daemon inherits every open
   descriptor, and a listening socket numbered 1024 or above stops
   [Tir.Server]'s acceptor. *)
let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let rpc fd payload =
  Tir.Server.send_frame fd payload;
  match Tir.Server.recv_frame fd with
  | Some reply -> reply
  | None -> failwith "the daemon closed the connection"

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rpc_once socket payload =
  let c = connect socket in
  Fun.protect ~finally:(fun () -> close c) (fun () -> rpc c payload)

(* Spawn [layout_tool serve] and wait until it answers STATS; returns
   the daemon, the seconds from spawn to that answer, and the answer. *)
let spawn ~layout_tool ~store =
  let socket = Proc.run_file "serve.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log = log_fd () in
  let t0 = now () in
  let pid =
    Unix.create_process layout_tool
      [| layout_tool; "serve"; "--socket"; socket; "--store"; store; "--domains"; "1" |]
      Unix.stdin log log
  in
  Proc.spawned pid;
  Unix.close log;
  let d = { pid; socket } in
  let deadline = t0 +. 120.0 in
  let rec ask () =
    match rpc_once socket "STATS" with
    | reply -> reply
    | exception (Unix.Unix_error _ | Failure _ | End_of_file) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _, st ->
            Proc.reaped pid;
            failwith ("layout_tool serve " ^ Proc.describe st));
        if now () > deadline then begin
          Proc.kill pid;
          failwith "layout_tool serve did not answer STATS within 120 s"
        end;
        Unix.sleepf 0.002;
        ask ()
  in
  let stats = ask () in
  (d, now () -. t0, stats)

(* SHUTDOWN, then reap: the daemon drains and saves its store. *)
let shutdown d =
  let reply = try rpc_once d.socket "SHUTDOWN" with e -> Printexc.to_string e in
  let status = Proc.waitpid d.pid in
  let errors =
    (if String.equal reply "OK bye" then [] else [ "SHUTDOWN replied " ^ reply ])
    @ if Proc.status_ok status then [] else [ "layout_tool serve " ^ Proc.describe status ]
  in
  errors

(* The warm start's store: made once per build of layout_tool and set
   of sessions by a cold daemon serving every ENGINE request of the
   sessions, then saved by its SHUTDOWN.  Each run starts from a copy. *)
let store ~layout_tool sessions =
  let build = Digest.to_hex (Digest.file layout_tool) in
  let requests =
    List.concat_map (fun s -> List.map (fun r -> r.payload) s.requests) sessions
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let path = Proc.run_file (Printf.sprintf "serve-%s-%s.store" build requests) in
  if not (Sys.file_exists path) then begin
    let tmp = path ^ ".tmp" in
    (try Sys.remove tmp with Sys_error _ -> ());
    let d, _, _ = spawn ~layout_tool ~store:tmp in
    let errors =
      match
        let c = connect d.socket in
        Fun.protect
          ~finally:(fun () -> close c)
          (fun () ->
            List.iter
              (fun s ->
                List.iter
                  (fun r ->
                    if r.verb = Engine then
                      let reply = rpc c r.payload in
                      if not (Checks.is_ok reply) then failwith ("store warm-up: " ^ reply))
                  s.requests)
              sessions)
      with
      | () -> shutdown d
      | exception e ->
          Proc.kill d.pid;
          [ Printexc.to_string e ]
    in
    if errors <> [] then failwith (String.concat "; " errors);
    Sys.rename tmp path
  end;
  let copy = Proc.run_file "serve-run.store" in
  Proc.copy_file path copy;
  copy

(* {1 Clients} *)

type sample = {
  session : int;
  index : int;  (** position in the session *)
  sample_verb : verb;
  ms : float;
  reply : string;
}

(* One pass: every session once, in seeded order, [clients] closed
   loops taking the next session as they free up. *)
let pass ~seed ~index tr socket sessions =
  let order =
    Suite.shuffle
      (Suite.rng ~seed ~purpose:(Printf.sprintf "serve-mixed/order/%d" index))
      (List.init (Array.length sessions) Fun.id)
  in
  let queue = ref order and samples = ref [] and failures = ref [] in
  let lock = Mutex.create () in
  let next () =
    Mutex.protect lock (fun () ->
        match !queue with
        | [] -> None
        | s :: rest ->
            queue := rest;
            Some s)
  in
  let client () =
    let rec loop () =
      match next () with
      | None -> ()
      | Some si ->
          let s = sessions.(si) in
          (try
             Tracer.with_ tr "server.session" (fun parent ->
                 let c = connect socket in
                 Fun.protect
                   ~finally:(fun () -> close c)
                   (fun () ->
                     List.iteri
                       (fun i r ->
                         let name = match r.verb with Plan -> "server.rpc.plan" | Engine -> "server.rpc.engine" in
                         let t0 = now () in
                         let reply =
                           Tracer.with_ tr ~parent name (fun _ -> rpc c r.payload)
                         in
                         let ms = (now () -. t0) *. 1e3 in
                         Mutex.protect lock (fun () ->
                             samples := { session = si; index = i; sample_verb = r.verb; ms; reply } :: !samples))
                       s.requests))
           with e ->
             Mutex.protect lock (fun () -> failures := (s.label ^ ": " ^ Printexc.to_string e) :: !failures));
          loop ()
    in
    loop ()
  in
  let t0 = now () in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  (List.rev !samples, wall, !failures)

let check_samples sessions samples =
  Checks.failures
    (List.map
       (fun s ->
         let r = List.nth sessions.(s.session).requests s.index in
         Result.map_error (fun e -> sessions.(s.session).label ^ ": " ^ e) (r.expect s.reply))
       samples)

let count verb sessions =
  Array.fold_left
    (fun a s -> a + List.length (List.filter (fun r -> r.verb = verb) s.requests))
    0 sessions

let engine_time s = Result.map float_of_string (Checks.field s.reply "time")

let run ~layout_tool ~seed ~seconds ~trace ~limit =
  let sessions = Array.of_list (sessions ~seed ~limit) in
  let requests = Array.fold_left (fun a s -> a + List.length s.requests) 0 sessions in
  let store_file = store ~layout_tool (Array.to_list sessions) in
  let errors = ref [] in
  let note e = errors := !errors @ e in
  let note_result = function Ok () -> () | Error e -> note [ e ] in
  (* set-up: spawn until STATS answers, the warm start checked *)
  let start () =
    let d, s, stats = spawn ~layout_tool ~store:store_file in
    note_result
      (Result.bind (Checks.int_field stats "store_rejected") (fun n ->
           Checks.same_count ~what:"store entries rejected at the warm start" ~expected:0 n));
    (d, s)
  in
  (* A daemon for [f].  The store was saved by the SHUTDOWN of the
     daemon that made it; this one is stopped without re-saving it. *)
  let serving f =
    let d, s = start () in
    Fun.protect ~finally:(fun () -> Proc.kill ~signal:Sys.sigterm d.pid) (fun () -> f d s)
  in
  (* One pass over the daemon, its STATS delta and its replies checked. *)
  let run_pass d tr index =
    let stats () = rpc_once d.socket "STATS" in
    let before = stats () in
    let ((samples, _, failures) as p) = pass ~seed ~index tr d.socket sessions in
    note_result
      (Checks.stats_delta ~before ~after:(stats ()) ~plans:(count Plan sessions)
         ~engines:(count Engine sessions));
    note (failures @ check_samples sessions samples);
    p
  in
  (* Plain passes, each on a daemon of its own, so that every pass
     starts from the same warm start and every start is a set-up
     sample, until [seconds] are measured: passes, set-up times and the
     daemons' peak RSS. *)
  let rec timed_passes i acc =
    let timed = List.fold_left (fun a ((_, wall, _), _, _) -> a +. wall) 0.0 acc in
    if i >= min_passes && timed >= seconds then List.rev acc
    else
      timed_passes (i + 1)
        (serving (fun d s -> (run_pass d None i, s, Proc.peak_rss_mb (string_of_int d.pid))) :: acc)
  in
  let measured =
    if trace then
      serving (fun d _ ->
          let plain = run_pass d None 0 in
          let tr = Tracer.create () in
          let traced = run_pass d (Some tr) 0 in
          `Trace (plain, traced, tr))
    else `Plain (timed_passes 0 [])
  in
  match measured with
  | `Plain runs ->
      let ps = List.map (fun (p, _, _) -> p) runs in
      let samples = List.concat_map (fun (s, _, _) -> s) ps in
      let lats = List.map (fun s -> s.ms) samples in
      let wall = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 ps in
      let times =
        List.filter_map
          (fun s -> if s.sample_verb = Engine then Result.to_option (engine_time s) else None)
          (match ps with (s, _, _) :: _ -> s | [] -> [])
      in
      let failed = requests * List.length ps - List.length samples in
      {
        Report.attempted = requests * List.length ps;
        failed;
        errors = !errors;
        metrics =
          [
            Report.metric "setup_s" "s" (Stats.median (List.map (fun (_, s, _) -> s) runs));
            Report.metric "throughput_ops_s" "1/s" (float_of_int (List.length samples) /. wall);
            Report.metric "latency_p50_ms" "ms" (Stats.percentile lats 0.50);
            Report.metric "latency_p90_ms" "ms" (Stats.percentile lats 0.90);
            Report.metric "peak_rss_mb" "MB" (List.fold_left (fun a (_, _, r) -> Float.max a r) 0.0 runs);
            Report.metric "codegen_cost" "cycles" (Stats.geomean times);
          ];
        notes =
          [
            ("passes", string_of_int (List.length ps));
            ("samples", string_of_int (List.length lats));
            ("latency_p99_ms", Printf.sprintf "%.3f" (Stats.percentile lats 0.99));
            ("sessions", string_of_int (Array.length sessions));
            ("plan_requests", string_of_int (count Plan sessions));
            ("engine_requests", string_of_int (count Engine sessions));
          ];
      }
  | `Trace ((plain_samples, plain_wall, _), (samples, traced_wall, _), tr) ->
      (* the daemon's work for every request, replayed in this process *)
      let before = Layers.counters () in
      let service =
        List.map
          (fun s ->
            let r = List.nth sessions.(s.session).requests s.index in
            let t0 = now () in
            let report =
              Tracer.with_ (Some tr)
                (match r.verb with Plan -> "replay.plan" | Engine -> "engine.run")
                (fun _ -> r.replay ())
            in
            (s, (now () -. t0) *. 1e3, report))
          samples
      in
      let after = Layers.counters () in
      let by verb = List.filter (fun (s, _, _) -> s.sample_verb = verb) service in
      let p50 f xs = if xs = [] then 0.0 else Stats.percentile (List.map f xs) 0.50 in
      let transval =
        List.filter_map (function _, _, Planned ms -> Some ms | _, _, Compiled _ -> None) service
      in
      (* the plan store, loaded here with the daemon's re-verification *)
      Codegen.Shared_cache.clear ();
      let verify ~machine plan (_ : Codegen.Plan_store.cert) =
        Checks.certificate (Analysis.Transval.certify_plan (Suite.find_machine machine) plan) = Ok ()
      in
      let load, load_s =
        Layers.time_s (fun () ->
            Tracer.with_ (Some tr) "codegen.plan_store.load" (fun _ -> Codegen.Plan_store.load ~verify store_file))
      in
      let conversions = Layers.conversion_keys () in
      let values =
        Layers.counter_metrics ~before ~after ~ops:(List.length samples)
        @ [
            ("engine.run_ms", Stats.mean (List.map (fun (_, ms, _) -> ms) (by Engine)));
            ("analysis.transval_ms", if transval = [] then 0.0 else Stats.mean transval);
            ("trace.overhead_s", traced_wall -. plain_wall);
          ]
        @ Layers.pass_metrics
            (List.filter_map (function _, _, Compiled r -> Some r | _, _, Planned _ -> None) service)
        @ Layers.entry_metrics () @ Layers.f2_metrics conversions
        @ Layers.planner_metrics (Some tr) ~conversions ~stagings:(Layers.staging_keys ())
      in
      Tracer.write tr (Proc.run_file (Printf.sprintf "trace-serve-mixed-%d.json" seed));
      if load.Codegen.Plan_store.rejected <> 0 then
        note [ Printf.sprintf "in-process store load rejected %d entries" load.Codegen.Plan_store.rejected ];
      {
        Report.attempted = 2 * requests;
        failed = (2 * requests) - List.length plain_samples - List.length samples;
        errors = !errors;
        metrics =
          Layers.metrics values
          @ [
              Report.metric "codegen.plan_store_load_s" "s" load_s;
              Report.metric "codegen.plan_store_entries" "count" (float_of_int load.Codegen.Plan_store.loaded);
              Report.metric "server.plan_ms_p50" "ms" (p50 (fun (s, _, _) -> s.ms) (by Plan));
              Report.metric "server.engine_ms_p50" "ms" (p50 (fun (s, _, _) -> s.ms) (by Engine));
              Report.metric "server.overhead_us_p50" "us"
                (p50 (fun (s, ms, _) -> (s.ms -. ms) *. 1e3) (by Engine));
              Report.metric "server.session_wait_ms_p50" "ms"
                (p50 (fun (s, ms, _) -> s.ms -. ms) (List.filter (fun (s, _, _) -> s.index = 0) service));
            ];
        notes = [];
      }
