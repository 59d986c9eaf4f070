(* search-warm: beam search ([Assign_search.run], default beam, one
   domain) over the smallest-size tile of each (kernel, machine) pair,
   after a set-up that compiles those tiles once with the greedy
   engine.  The pass pipeline re-runs once per explored script and
   [Static_cost] re-prices the short-list. *)

let now = Unix.gettimeofday
let setups = 3
let certify_sample = 4

(* A run pools at least two search orders, however fast the host runs:
   the peak RSS and the p90 depend on the order. *)
let min_rounds = 2

let tiles ~seed ~limit =
  let all = Suite.tiles () in
  Array.of_list
    (match limit with
    | None -> all
    | Some k -> Suite.sample (Suite.rng ~seed ~purpose:"search-warm/smoke") k all)

(* What the workload keeps of one search: enough to check and replay
   the winner. *)
type won = {
  tile : int;
  script : int list;
  stats : Tir.Assign_search.stats;
  objective : float;  (** of the winner, re-priced by [Assign_search.objective] *)
}

type round = {
  lat_ms : float list;
  wall_s : float;
  wins : won list;  (** in search order *)
  failed : int;  (** searches that raised; left out of the rest *)
  before : Layers.counters;  (** at the start of the timed phase *)
  after : Layers.counters;
}

(* One search of every tile in seeded order; only the call to
   [Assign_search.run] is timed.  A search that raises is counted as
   failed and kept out of the samples and checks. *)
let round ~seed ~index tr tiles progs =
  let order =
    Suite.shuffle
      (Suite.rng ~seed ~purpose:(Printf.sprintf "search-warm/order/%d" index))
      (List.init (Array.length tiles) Fun.id)
  in
  let before = Layers.counters () in
  let wall = ref 0.0 in
  let timed =
    List.map
      (fun i ->
        let m = tiles.(i).Suite.machine in
        let t0 = now () in
        match
          Tracer.with_ tr "search.run" (fun _ ->
              Tir.Assign_search.run m ~mode:Tir.Pass.Linear
                ~params:Tir.Assign_search.default_params progs.(i))
        with
        | o ->
            let dt = now () -. t0 in
            wall := !wall +. dt;
            Ok
              ( dt *. 1e3,
                {
                  tile = i;
                  script = o.Tir.Assign_search.script;
                  stats = o.Tir.Assign_search.stats;
                  objective = Tir.Assign_search.objective m o.Tir.Assign_search.result;
                } )
        | exception e ->
            Printf.eprintf "%s failed: %s\n" (Suite.name tiles.(i)) (Printexc.to_string e);
            Error ())
      order
  in
  let ok = List.filter_map Result.to_option timed in
  {
    lat_ms = List.map fst ok;
    wall_s = !wall;
    wins = List.map snd ok;
    failed = List.length timed - List.length ok;
    before;
    after = Layers.counters ();
  }

let planner_invocations r = r.after.Layers.l2_misses - r.before.Layers.l2_misses
let total f r = List.fold_left (fun a w -> a + f w.stats) 0 r.wins
let explored = total (fun s -> s.Tir.Assign_search.explored)
let pruned = total (fun s -> s.Tir.Assign_search.pruned)

(* Checks of a round: every winner is at or below the greedy
   objective, and a seeded sample of winners replays under full
   translation validation as proved, to the same objective. *)
let check ~seed tiles greedy r =
  let bounds =
    Checks.failures
      (List.map
         (fun w ->
           Result.map_error
             (fun e -> Suite.name tiles.(w.tile) ^ ": " ^ e)
             (Checks.search_winner ~greedy:greedy.(w.tile) ~winner:w.objective))
         r.wins)
  in
  let replays =
    List.filter_map
      (fun w ->
        let t = tiles.(w.tile) in
        let chooser = Tir.Assign_search.chooser_of_script w.script in
        let report = Tir.Certify.run t.Suite.machine ~mode:Tir.Pass.Linear ~chooser (Suite.build t) in
        if not (Tir.Certify.proved report) then
          Some (Printf.sprintf "%s: search winner replays as %s" (Suite.name t) (Tir.Certify.status report))
        else if Tir.Assign_search.objective t.Suite.machine report.Tir.Certify.result <> w.objective
        then Some (Suite.name t ^ ": search winner replays to another objective")
        else None)
      (Suite.sample (Suite.rng ~seed ~purpose:"search-warm/certify") certify_sample r.wins)
  in
  bounds @ replays

let run ~seed ~seconds ~trace ~limit =
  let tiles = tiles ~seed ~limit in
  let n = Array.length tiles in
  let progs = Array.map Suite.build tiles in
  (* set-up: the greedy warm-up compile, from empty caches, before
     every round, so that every round starts from the same state *)
  let setup_times = ref [] in
  let warm_up () =
    Codegen.Shared_cache.clear ();
    Codegen.Plan_cache.clear ();
    Linear_layout.Layout.Memo.clear ();
    let t0 = now () in
    let results =
      Array.mapi (fun i t -> Tir.Engine.run t.Suite.machine ~mode:Tir.Engine.Linear progs.(i)) tiles
    in
    setup_times := (now () -. t0) :: !setup_times;
    results
  in
  for _ = 2 to setups do
    ignore (warm_up () : Tir.Engine.result array)
  done;
  let greedy =
    Array.mapi (fun i r -> Tir.Assign_search.objective tiles.(i).Suite.machine r) (warm_up ())
  in
  let round ~index tr =
    if index > 0 || tr <> None then ignore (warm_up () : Tir.Engine.result array);
    round ~seed ~index tr tiles progs
  in
  let counts r =
    [
      ("explored", explored r);
      ("pruned", pruned r);
      ("planner_invocations", planner_invocations r);
      ("failed_searches", r.failed);
    ]
  in
  let determinism = function
    | [] -> []
    | first :: rest ->
        List.concat_map
          (fun r ->
            Checks.failures
              (List.map2
                 (fun (what, got) (_, expected) ->
                   Checks.same_count ~what:("search " ^ what) ~expected got)
                 (counts r) (counts first)))
          rest
        @ Proc.remembered_counts ~workload:(Suite.workload_key "search-warm" limit) ~seed (counts first)
  in
  if trace then begin
    let plain = round ~index:0 None in
    let tr = Tracer.create () in
    let traced = round ~index:0 (Some tr) in
    let entries = Layers.entry_metrics () in
    (* the winners' pipelines, replayed pass by pass, and their
       objectives re-priced *)
    let replays =
      List.map
        (fun w ->
          let m = tiles.(w.tile).Suite.machine in
          let chooser = Tir.Assign_search.chooser_of_script w.script in
          let prog = Suite.build tiles.(w.tile) in
          let (r, report), run_s =
            Layers.time_s (fun () ->
                Tracer.with_ (Some tr) "engine.run" (fun _ -> Layers.run_pipeline ~chooser m prog))
          in
          let (_ : float), objective_s =
            Layers.time_s (fun () ->
                Tracer.with_ (Some tr) "search.objective" (fun _ -> Tir.Assign_search.objective m r))
          in
          ((m, r), report, run_s *. 1e3, objective_s *. 1e3))
        traced.wins
    in
    let certified =
      Layers.certify_all (Some tr) (Layers.distinct_plans (List.map (fun (mr, _, _, _) -> mr) replays))
    in
    let conversions = Layers.conversion_keys () in
    let per_op f = float_of_int (f traced) /. float_of_int (max 1 (List.length traced.wins)) in
    let values =
      Layers.counter_metrics ~before:traced.before ~after:traced.after ~ops:n
      @ entries
      @ Layers.pass_metrics (List.map (fun (_, rep, _, _) -> rep) replays)
      @ [
          ("engine.run_ms", Stats.mean (List.map (fun (_, _, ms, _) -> ms) replays));
          ("search.static_cost_ms", Stats.mean (List.map (fun (_, _, _, ms) -> ms) replays));
          ("search.explored", per_op explored);
          ("search.pruned", per_op pruned);
          ("trace.overhead_s", traced.wall_s -. plain.wall_s);
        ]
      @ Layers.transval_metrics certified @ Layers.f2_metrics conversions
      @ Layers.planner_metrics (Some tr) ~conversions ~stagings:(Layers.staging_keys ())
    in
    Tracer.write tr (Proc.run_file (Printf.sprintf "trace-search-warm-%d.json" seed));
    let errors =
      check ~seed tiles greedy traced
      @ determinism [ plain; traced ]
      @ Checks.failures (List.map (fun (c, _) -> Checks.certificate c) certified)
    in
    { Report.attempted = 2 * n; failed = plain.failed + traced.failed; errors; metrics = Layers.metrics values; notes = [] }
  end
  else begin
    let rec loop i acc timed =
      if i >= min_rounds && timed >= seconds then List.rev acc
      else
        let r = round ~index:i None in
        loop (i + 1) (r :: acc) (timed +. r.wall_s)
    in
    let rounds = loop 0 [] 0.0 in
    let rss = Proc.peak_rss_mb "self" in
    let lats = List.concat_map (fun r -> r.lat_ms) rounds in
    let wall = List.fold_left (fun a r -> a +. r.wall_s) 0.0 rounds in
    let first = List.hd rounds in
    {
      Report.attempted = n * List.length rounds;
      failed = List.fold_left (fun a r -> a + r.failed) 0 rounds;
      errors = List.concat_map (check ~seed tiles greedy) rounds @ determinism rounds;
      metrics =
        [
          Report.metric "setup_s" "s" (Stats.median !setup_times);
          Report.metric "throughput_ops_s" "1/s" (float_of_int (List.length lats) /. wall);
          Report.metric "latency_p50_ms" "ms" (Stats.percentile lats 0.50);
          Report.metric "latency_p90_ms" "ms" (Stats.percentile lats 0.90);
          Report.metric "peak_rss_mb" "MB" rss;
          Report.metric "codegen_cost" "cycles" (Stats.geomean (List.map (fun w -> w.objective) first.wins));
        ];
      notes =
        [
          ("rounds", string_of_int (List.length rounds));
          ("samples", string_of_int (List.length lats));
          ("latency_p99_ms", Printf.sprintf "%.3f" (Stats.percentile lats 0.99));
          ("explored_per_round", string_of_int (explored first));
          ("planner_invocations_per_round", string_of_int (planner_invocations first));
        ];
    }
  end
