(* Per-layer measurements of the traced run.  Every number comes from
   a public function of the layer, called from here: cache counters
   read before and after, planners and F2 eliminations re-run on the
   keys a workload produced, pass reports of [Pass_manager.run]. *)

open Linear_layout

(* Every per-layer metric of the workloads in BENCHMARK.json, in the
   order printed.  A layer a workload never reaches reads 0 there.
   serve-mixed, run by hand, prints its server and plan-store metrics
   after these. *)
let spec =
  [
    ("f2.factorize_calls", "count");
    ("f2.factorize_us", "us");
    ("core.memo_hits", "count");
    ("core.memo_misses", "count");
    ("codegen.planner_invocations", "count");
    ("codegen.conversion_plan_ms", "ms");
    ("codegen.staging_plan_ms", "ms");
    ("codegen.l1_hits", "count");
    ("codegen.l1_misses", "count");
    ("codegen.l2_hits", "count");
    ("codegen.entries.conversion", "count");
    ("codegen.entries.staging", "count");
    ("codegen.entries.shuffle", "count");
    ("codegen.entries.swizzle", "count");
    ("passes.anchor_ms", "ms");
    ("passes.forward_propagate_ms", "ms");
    ("passes.simplify_ms", "ms");
    ("passes.backward_remat_ms", "ms");
    ("passes.insert_conversions_ms", "ms");
    ("passes.lower_ms", "ms");
    ("engine.run_ms", "ms");
    ("search.explored", "count");
    ("search.pruned", "count");
    ("search.static_cost_ms", "ms");
    ("analysis.transval_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_s", "s");
  ]

let metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then invalid_arg ("Layers.metrics: unknown " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      Report.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    spec

(* {1 Counters} *)

type counters = {
  memo_hits : int;
  memo_misses : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;  (** = planner invocations *)
  minor_words : float;
  major_collections : int;
}

let counters () =
  let l2 = Codegen.Shared_cache.stats () in
  let gc = Gc.quick_stat () in
  {
    memo_hits = Layout.Memo.hits ();
    memo_misses = Layout.Memo.misses ();
    l1_hits = Codegen.Plan_cache.hits ();
    l1_misses = Codegen.Plan_cache.misses ();
    l2_hits = l2.Codegen.Shared_cache.hits;
    l2_misses = l2.Codegen.Shared_cache.misses;
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
  }

(* The counter metrics of an interval of [ops] operations. *)
let counter_metrics ~before ~after ~ops =
  let d f = float_of_int (f after - f before) in
  [
    ("core.memo_hits", d (fun c -> c.memo_hits));
    ("core.memo_misses", d (fun c -> c.memo_misses));
    ("codegen.l1_hits", d (fun c -> c.l1_hits));
    ("codegen.l1_misses", d (fun c -> c.l1_misses));
    ("codegen.l2_hits", d (fun c -> c.l2_hits));
    ("codegen.planner_invocations", d (fun c -> c.l2_misses));
    ("gc.minor_words_per_op", (after.minor_words -. before.minor_words) /. float_of_int ops);
    ("gc.major_collections", d (fun c -> c.major_collections));
  ]

(* Entries of the process-wide plan cache, by plan kind. *)
let entry_metrics () =
  let count fold = float_of_int (fold (fun _ _ n -> n + 1) 0) in
  [
    ("codegen.entries.conversion", count Codegen.Shared_cache.fold_conversions);
    ("codegen.entries.staging", count Codegen.Shared_cache.fold_stagings);
    ("codegen.entries.shuffle", count Codegen.Shared_cache.fold_shuffles);
    ("codegen.entries.swizzle", count Codegen.Shared_cache.fold_swizzles);
  ]

(* {1 Re-running layers on a workload's keys} *)

let machine_of (k : Codegen.Shared_cache.Key.t) = Suite.find_machine k.Codegen.Shared_cache.Key.machine

let conversion_keys () = Codegen.Shared_cache.fold_conversions (fun k _ acc -> k :: acc) []
let staging_keys () = Codegen.Shared_cache.fold_stagings (fun k _ acc -> k :: acc) []

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Each planner's public function, re-run from a fresh memo state on
   the keys of the shared cache, in ms for the whole key set. *)
let planner_metrics tr ~conversions ~stagings =
  let replan name keys plan =
    Layout.Memo.clear ();
    let (), s =
      time_s (fun () ->
          List.iter
            (fun (k : Codegen.Shared_cache.Key.t) ->
              Tracer.with_ tr name (fun _ ->
                  plan (machine_of k) ~src:k.Codegen.Shared_cache.Key.src
                    ~dst:k.Codegen.Shared_cache.Key.dst ~byte_width:k.Codegen.Shared_cache.Key.byte_width))
            keys)
    in
    s *. 1e3
  in
  let conv =
    replan "codegen.conversion.plan" conversions (fun m ~src ~dst ~byte_width ->
        ignore (Codegen.Conversion.plan m ~src ~dst ~byte_width : Codegen.Conversion.plan))
  in
  let staging =
    replan "codegen.operand_staging.plan" stagings (fun m ~src ~dst ~byte_width ->
        ignore (Codegen.Operand_staging.plan m ~src ~dst ~byte_width : Codegen.Operand_staging.t option))
  in
  [ ("codegen.conversion_plan_ms", conv); ("codegen.staging_plan_ms", staging) ]

(* [F2.Bitmatrix.factorize] on the source, destination and conversion
   map of every conversion key.  One call takes about a microsecond,
   below the clock's resolution, so the set is timed whole, [f2_reps]
   times over, and reported as the mean per call. *)
let f2_reps = 50

let f2_metrics keys =
  let mats =
    List.concat_map
      (fun (k : Codegen.Shared_cache.Key.t) ->
        let src = k.Codegen.Shared_cache.Key.src and dst = k.Codegen.Shared_cache.Key.dst in
        [ Layout.to_matrix src; Layout.to_matrix dst; Layout.to_matrix (Codegen.Conversion.conversion_map ~src ~dst) ])
      keys
  in
  let calls = List.length mats in
  let (), s =
    time_s (fun () ->
        for _ = 1 to f2_reps do
          List.iter (fun m -> ignore (F2.Bitmatrix.factorize m : F2.Bitmatrix.echelon)) mats
        done)
  in
  [
    ("f2.factorize_calls", float_of_int calls);
    ("f2.factorize_us", if calls = 0 then 0.0 else s *. 1e6 /. float_of_int (f2_reps * calls));
  ]

(* Mean per-pass wall time per pipeline run, from the reports of
   [Pass_manager.run]. *)
let pass_metrics (reports : Tir.Pass_manager.report list) =
  let n = float_of_int (max 1 (List.length reports)) in
  List.map
    (fun pass ->
      let total =
        List.fold_left
          (fun acc (r : Tir.Pass_manager.report) ->
            List.fold_left
              (fun acc (p : Tir.Pass_manager.pass_report) ->
                if String.equal p.Tir.Pass_manager.pass pass then acc +. p.Tir.Pass_manager.wall_ms
                else acc)
              acc r.Tir.Pass_manager.pass_reports)
          0.0 reports
      in
      (Printf.sprintf "passes.%s_ms" pass, total /. n))
    (List.map Tir.Passes.name Tir.Passes.default)

(* The default pipeline, driven pass by pass: the same work as
   [Engine.run], with its per-pass report. *)
let run_pipeline ?chooser machine prog =
  let st = Tir.Pass.init machine ~mode:Tir.Pass.Linear ?chooser prog in
  let report = Tir.Pass_manager.run (Tir.Pass_manager.config Tir.Passes.default) st in
  (Tir.Pass.result st, report)

(* [Transval.certify_plan] on every plan, with its time in ms. *)
let certify_all tr plans =
  List.map
    (fun (m, plan) ->
      let cert, s =
        time_s (fun () ->
            Tracer.with_ tr "analysis.transval.certify_plan" (fun _ ->
                Analysis.Transval.certify_plan m plan))
      in
      (cert, s *. 1e3))
    plans

let transval_metrics certified =
  [ ("analysis.transval_ms", if certified = [] then 0.0 else Stats.mean (List.map snd certified)) ]

(* The materialized conversion plans of engine results, one per
   distinct (machine, src, dst, byte width). *)
let distinct_plans (results : (Gpusim.Machine.t * Tir.Engine.result) list) =
  let seen = Hashtbl.create 256 in
  List.concat_map
    (fun (m, (r : Tir.Engine.result)) ->
      List.filter_map
        (fun (c : Tir.Engine.conversion_info) ->
          match c.Tir.Engine.plan with
          | None -> None
          | Some p ->
              let key =
                {
                  Codegen.Shared_cache.Key.machine = m.Gpusim.Machine.name;
                  src = p.Codegen.Conversion.src;
                  dst = p.Codegen.Conversion.dst;
                  byte_width = p.Codegen.Conversion.byte_width;
                }
              in
              let h = Codegen.Shared_cache.Key.hash key in
              let dup =
                List.exists (Codegen.Shared_cache.Key.equal key) (Hashtbl.find_all seen h)
              in
              if dup then None
              else begin
                Hashtbl.add seen h key;
                Some (m, p)
              end)
        r.Tir.Engine.conversions)
    results
