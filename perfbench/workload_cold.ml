(* compile-cold: every (kernel, machine, size) triple the suite admits,
   compiled with the linear engine and the greedy strategy in seeded
   order, one sweep per fresh process, so every cache the program
   keeps starts empty.  Planning is on the critical path. *)

let now = Unix.gettimeofday

(* {1 The sweep, in a child process}

   The child prints [ready] once its inputs are built, then one line
   per result:
   - [op <suite index> <latency ms> <Engine.time>] or [fail <index> <why>];
   - [wall <s>], [planner <n>], [rss <MB>];
   - [layer <name> <value>] (traced sweeps), [error <why>] (checks). *)

let interp_sample = 6

(* The checks of a sweep beyond [Checks.supported]: the distinct
   materialized plans, for translation validation, and the failures of
   a seeded sample of tiles evaluated through the assigned layouts
   against plain tensors. *)
let check_sweep ~seed ~limit triples results =
  let plans =
    Layers.distinct_plans
      (List.filter_map Fun.id
         (Array.to_list
            (Array.mapi (fun i r -> Option.map (fun r -> (triples.(i).Suite.machine, r)) r) results)))
  in
  let interp (t : Suite.triple) =
    let prog = Suite.build t in
    let inputs = Tir.Interp.synth_inputs prog in
    let reference = Tir.Interp.reference prog ~inputs in
    let got = Tir.Interp.through_layouts t.Suite.machine prog ~inputs in
    Result.map_error (fun e -> Suite.name t ^ ": " ^ e) (Checks.outputs ~reference ~got)
  in
  let sample =
    Suite.sample
      (Suite.rng ~seed ~purpose:"compile-cold/interp")
      (Option.fold ~none:interp_sample ~some:(min interp_sample) limit)
      (Suite.tiles ())
  in
  (plans, Checks.failures (List.map interp sample))

(* The suite's triples, or with [limit] (the smoke mode) a seeded few. *)
let triples ~seed ~limit =
  let all = Suite.triples () in
  Array.of_list
    (match limit with
    | None -> all
    | Some k -> Suite.sample (Suite.rng ~seed ~purpose:"compile-cold/smoke") k all)

let child ~seed ~sweep ~check ~trace ~limit =
  let triples = triples ~seed ~limit in
  let n = Array.length triples in
  let progs = Array.map Suite.build triples in
  let order =
    Suite.shuffle
      (Suite.rng ~seed ~purpose:(Printf.sprintf "compile-cold/order/%d" sweep))
      (List.init n Fun.id)
  in
  print_endline "ready";
  let tr = if trace then Some (Tracer.create ()) else None in
  let results = Array.make n None and lat = Array.make n 0.0 and failures = ref [] in
  let reports = ref [] in
  let compile (t : Suite.triple) prog =
    if trace then
      Tracer.with_ tr "engine.run" (fun _ ->
          let r, report = Layers.run_pipeline t.Suite.machine prog in
          reports := report :: !reports;
          r)
    else Tir.Engine.run t.Suite.machine ~mode:Tir.Engine.Linear prog
  in
  let before = Layers.counters () in
  let t_start = now () in
  List.iter
    (fun i ->
      let t0 = now () in
      match compile triples.(i) progs.(i) with
      | r ->
          lat.(i) <- (now () -. t0) *. 1e3;
          results.(i) <- Some r
      | exception e -> failures := (i, Printexc.to_string e) :: !failures)
    order;
  let wall = now () -. t_start in
  let after = Layers.counters () in
  let rss = Proc.peak_rss_mb "self" in
  Array.iteri
    (fun i r ->
      match r with
      | Some r ->
          Printf.printf "op %d %.17g %.17g\n" i lat.(i) (Tir.Engine.time triples.(i).Suite.machine r)
      | None -> ())
    results;
  List.iter
    (fun (i, e) ->
      Printf.eprintf "%s failed: %s\n" (Suite.name triples.(i)) e;
      Printf.printf "fail %d\n" i)
    !failures;
  Printf.printf "wall %.17g\nplanner %d\nrss %.17g\n" wall
    (after.Layers.l2_misses - before.Layers.l2_misses)
    rss;
  let supported =
    Checks.failures (List.filter_map (Option.map Checks.supported) (Array.to_list results))
  in
  let checked =
    if not (check || trace) then []
    else begin
      let plans, interp_errors = check_sweep ~seed ~limit triples results in
      let certified = Layers.certify_all tr plans in
      Option.iter
        (fun tr' ->
          let conversions = Layers.conversion_keys () in
          let values =
            Layers.counter_metrics ~before ~after ~ops:n
            @ Layers.entry_metrics () @ Layers.pass_metrics !reports
            @ [ ("engine.run_ms", Stats.mean (Tracer.durations_ms tr' "engine.run")) ]
            @ Layers.transval_metrics certified @ Layers.f2_metrics conversions
            @ Layers.planner_metrics tr ~conversions ~stagings:(Layers.staging_keys ())
          in
          List.iter (fun (k, v) -> Printf.printf "layer %s %.17g\n" k v) values;
          Tracer.write tr' (Proc.run_file (Printf.sprintf "trace-compile-cold-%d.json" seed)))
        tr;
      interp_errors @ Checks.failures (List.map (fun (c, _) -> Checks.certificate c) certified)
    end
  in
  List.iter (fun e -> Printf.printf "error %s\n" (String.escaped e)) (supported @ checked)

(* {1 The parent} *)

type sweep = {
  setup_s : float;  (** spawn until the child's inputs are built *)
  lat_ms : float list;
  cost : (int * float) list;  (** suite index, Engine.time *)
  wall_s : float;
  planner : int;
  rss_mb : float;
  layers : (string * float) list;
  failed : int;
  errors : string list;
}

let run_child ~exe ~seed ~sweep ~check ~trace ~limit =
  let args =
    Array.of_list
      ([
         exe; "--child-sweep"; string_of_int sweep; "--seed"; string_of_int seed; "--check";
         (if check then "1" else "0"); "--trace"; (if trace then "1" else "0");
       ]
      @ match limit with None -> [] | Some k -> [ "--limit"; string_of_int k ])
  in
  let t0 = now () in
  let ic = Unix.open_process_args_in exe args in
  let pid = Unix.process_in_pid ic in
  Proc.spawned pid;
  let first = try input_line ic with End_of_file -> "" in
  let setup_s = now () -. t0 in
  let s =
    ref
      {
        setup_s;
        lat_ms = [];
        cost = [];
        wall_s = 0.0;
        planner = 0;
        rss_mb = 0.0;
        layers = [];
        failed = 0;
        errors = (if first = "ready" then [] else [ "sweep child did not start: " ^ first ]);
      }
  in
  let rec read () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        (match String.index_opt line ' ' with
        | None -> ()
        | Some sp -> (
            let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
            let c = !s in
            match String.sub line 0 sp with
            | "op" ->
                Scanf.sscanf rest "%d %f %f" (fun i ms cost ->
                    s := { c with lat_ms = ms :: c.lat_ms; cost = (i, cost) :: c.cost })
            | "fail" -> s := { c with failed = c.failed + 1 }
            | "wall" -> s := { c with wall_s = float_of_string rest }
            | "planner" -> s := { c with planner = int_of_string rest }
            | "rss" -> s := { c with rss_mb = float_of_string rest }
            | "layer" ->
                Scanf.sscanf rest "%s %f" (fun k v -> s := { c with layers = (k, v) :: c.layers })
            | "error" -> s := { c with errors = Scanf.unescaped rest :: c.errors }
            | _ -> ()));
        read ()
  in
  read ();
  let status = Unix.close_process_in ic in
  Proc.reaped pid;
  let c = !s in
  if Proc.status_ok status then { c with cost = List.sort compare c.cost }
  else { c with errors = ("sweep child " ^ Proc.describe status) :: c.errors }

let run ~exe ~seed ~seconds ~trace ~limit =
  let n = Array.length (triples ~seed ~limit) in
  let run_child = run_child ~limit in
  let cross_sweep sweeps =
    (* order-independent exact results must agree between sweeps *)
    match sweeps with
    | [] -> []
    | first :: rest ->
        List.concat_map
          (fun s ->
            (match Checks.same_count ~what:"planner invocations per sweep" ~expected:first.planner s.planner with
            | Ok () -> []
            | Error e -> [ e ])
            @ if s.cost = first.cost then [] else [ "Engine.time of some triple differs between sweeps" ])
          rest
  in
  if trace then begin
    let plain = run_child ~exe ~seed ~sweep:0 ~check:false ~trace:false in
    let traced = run_child ~exe ~seed ~sweep:0 ~check:true ~trace:true in
    let sweeps = [ plain; traced ] in
    {
      Report.attempted = 2 * n;
      failed = plain.failed + traced.failed;
      errors = plain.errors @ traced.errors @ cross_sweep sweeps;
      metrics = Layers.metrics (("trace.overhead_s", traced.wall_s -. plain.wall_s) :: traced.layers);
      notes = [];
    }
  end
  else begin
    let rec loop i acc timed =
      if i >= 2 && timed >= seconds then List.rev acc
      else
        let s = run_child ~exe ~seed ~sweep:i ~check:(i = 0) ~trace:false in
        loop (i + 1) (s :: acc) (timed +. s.wall_s)
    in
    let sweeps = loop 0 [] 0.0 in
    let first = List.hd sweeps in
    let lats = List.concat_map (fun s -> s.lat_ms) sweeps in
    let wall = List.fold_left (fun a s -> a +. s.wall_s) 0.0 sweeps in
    let remembered =
      Proc.remembered_counts ~workload:(Suite.workload_key "compile-cold" limit) ~seed [ ("planner_invocations", first.planner) ]
    in
    {
      Report.attempted = n * List.length sweeps;
      failed = List.fold_left (fun a s -> a + s.failed) 0 sweeps;
      errors = List.concat_map (fun s -> s.errors) sweeps @ cross_sweep sweeps @ remembered;
      metrics =
        [
          Report.metric "setup_s" "s" (Stats.median (List.map (fun s -> s.setup_s) sweeps));
          Report.metric "throughput_ops_s" "1/s" (float_of_int (List.length lats) /. wall);
          Report.metric "latency_p50_ms" "ms" (Stats.percentile lats 0.50);
          Report.metric "latency_p90_ms" "ms" (Stats.percentile lats 0.90);
          Report.metric "peak_rss_mb" "MB" (List.fold_left (fun a s -> Float.max a s.rss_mb) 0.0 sweeps);
          Report.metric "codegen_cost" "cycles" (Stats.geomean (List.map snd first.cost));
        ];
      notes =
        [
          ("sweeps", string_of_int (List.length sweeps));
          ("samples", string_of_int (List.length lats));
          ("latency_p99_ms", Printf.sprintf "%.3f" (Stats.percentile lats 0.99));
          ("planner_invocations_per_sweep", string_of_int first.planner);
        ];
    }
  end
