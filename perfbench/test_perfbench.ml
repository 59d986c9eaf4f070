(* Tests of the benchmark itself: its statistics helpers, and every
   output check fed a right and a wrong answer. *)

open Perfbench_lib

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let is_ok = function Ok () -> true | Error _ -> false
let is_error r = not (is_ok r)
let close a b = Float.abs (a -. b) < 1e-9 *. Float.max 1.0 (Float.abs b)

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_stats () =
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  check "percentile p50 of 1..10 is 5" (Stats.percentile xs 0.5 = 5.0);
  check "percentile p90 of 1..10 is 9" (Stats.percentile xs 0.9 = 9.0);
  check "percentile p100 is the maximum" (Stats.percentile xs 1.0 = 10.0);
  check "percentile p0 is the minimum" (Stats.percentile xs 0.0 = 1.0);
  check "percentile p99 of 1000 samples is the 990th" (Stats.percentile (List.init 1000 float_of_int) 0.99 = 989.0);
  check "percentile of one sample" (Stats.percentile [ 7.0 ] 0.9 = 7.0);
  check "percentile of no samples raises" (raises (fun () -> Stats.percentile [] 0.5));
  check "median of an odd count" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median of an even count" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check "geomean of 1 and 100 is 10" (close (Stats.geomean [ 1.0; 100.0 ]) 10.0);
  check "geomean of 2 and 8 is 4" (close (Stats.geomean [ 2.0; 8.0 ]) 4.0);
  check "geomean of equal samples" (close (Stats.geomean [ 3.5; 3.5; 3.5 ]) 3.5);
  check "geomean rejects zero" (raises (fun () -> Stats.geomean [ 1.0; 0.0 ]));
  check "mean" (close (Stats.mean [ 1.0; 2.0; 6.0 ]) 3.0)

let gemm = { Suite.kernel = Tir.Kernels.find "gemm"; machine = Gpusim.Machine.gh200; size = 1024 }

let test_engine_reply () =
  let m = gemm.Suite.machine in
  let r = Tir.Engine.run m ~mode:Tir.Engine.Linear (Suite.build gemm) in
  let reply fields = "OK " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields) in
  let right = Checks.engine_fields m r in
  check "engine reply: the library's own answer passes" (is_ok (Checks.engine_reply m r (reply right)));
  let perturbed =
    List.map
      (fun (k, v) -> if k = "time" then (k, string_of_int (int_of_string v + 1)) else (k, v))
      right
  in
  check "engine reply: a perturbed time= fails" (is_error (Checks.engine_reply m r (reply perturbed)));
  check "engine reply: an error reply fails"
    (is_error (Checks.engine_reply m r "ERR LL914 unknown kernel gemm"));
  check "engine reply: a missing field fails"
    (is_error (Checks.engine_reply m r (reply (List.tl right))))

let test_plan_reply () =
  check "plan reply: proved with the planner's mechanism passes"
    (is_ok (Checks.plan_reply ~mechanism:"warp_shuffle" "OK mechanism=warp_shuffle cert=proved points=64"));
  check "plan reply: a refuted certificate fails"
    (is_error (Checks.plan_reply ~mechanism:"warp_shuffle" "OK mechanism=warp_shuffle cert=refuted points=64"));
  check "plan reply: another mechanism fails"
    (is_error (Checks.plan_reply ~mechanism:"warp_shuffle" "OK mechanism=shared_memory cert=proved points=64"))

let test_certificate () =
  let m = gemm.Suite.machine in
  let r = Tir.Engine.run m ~mode:Tir.Engine.Linear (Suite.build gemm) in
  match Layers.distinct_plans [ (m, r) ] with
  | [] -> check "certificate: gemm materializes a conversion" false
  | (m, plan) :: _ ->
      let cert = Analysis.Transval.certify_plan m plan in
      check "certificate: a proved plan passes" (is_ok (Checks.certificate cert));
      let refuted =
        {
          cert with
          Analysis.Transval.verdict =
            Analysis.Transval.Refuted { Analysis.Transval.counterexample = 1; got = None; want = 1 };
        }
      in
      check "certificate: a refuted certificate fails" (is_error (Checks.certificate refuted));
      let failed = { cert with Analysis.Transval.verdict = Analysis.Transval.Failed "lowering crashed" } in
      check "certificate: an uncertifiable plan fails" (is_error (Checks.certificate failed))

let test_search_winner () =
  check "search: a winner at greedy passes" (is_ok (Checks.search_winner ~greedy:100.0 ~winner:100.0));
  check "search: a winner below greedy passes" (is_ok (Checks.search_winner ~greedy:100.0 ~winner:90.0));
  check "search: a winner above greedy fails"
    (is_error (Checks.search_winner ~greedy:100.0 ~winner:100.000001))

let test_outputs () =
  let tile = { gemm with Suite.kernel = Tir.Kernels.find "softmax"; size = 1024 } in
  let prog = Suite.build tile in
  let inputs = Tir.Interp.synth_inputs prog in
  let reference = Tir.Interp.reference prog ~inputs in
  let got = Tir.Interp.through_layouts tile.Suite.machine prog ~inputs in
  check "outputs: layout evaluation equals the reference" (is_ok (Checks.outputs ~reference ~got));
  match got with
  | [] -> check "outputs: the program stores something" false
  | (id, t) :: rest ->
      let data = Array.copy t.Tensor_lib.Tensor.data in
      data.(Array.length data / 2) <- data.(Array.length data / 2) +. 1.0;
      let flipped = (id, { t with Tensor_lib.Tensor.data }) :: rest in
      check "outputs: one flipped element fails" (is_error (Checks.outputs ~reference ~got:flipped));
      check "outputs: a missing store fails" (is_error (Checks.outputs ~reference ~got:rest))

let test_stats_delta () =
  let stats ~plan ~engine ~misses ~rejected ~errors =
    Printf.sprintf
      "OK served=%d plan=%d engine=%d errors=%d shared_hits=0 shared_misses=%d shared_inserts=275 \
       store_loaded=275 store_rejected=%d domains=1"
      (plan + engine) plan engine errors misses rejected
  in
  let before = stats ~plan:0 ~engine:0 ~misses:0 ~rejected:0 ~errors:0 in
  let after ?(misses = 0) ?(rejected = 0) ?(errors = 0) () =
    stats ~plan:305 ~engine:394 ~misses ~rejected ~errors
  in
  let delta after = Checks.stats_delta ~before ~after ~plans:305 ~engines:394 in
  check "STATS: a warm timed phase passes" (is_ok (delta (after ())));
  check "STATS: a planner invocation fails" (is_error (delta (after ~misses:1 ())));
  check "STATS: a rejected store entry fails" (is_error (delta (after ~rejected:1 ())));
  check "STATS: an error reply fails" (is_error (delta (after ~errors:1 ())));
  check "STATS: a lost request fails"
    (is_error (Checks.stats_delta ~before ~after:(after ()) ~plans:305 ~engines:395))

let test_counts () =
  check "counts: equal counts pass" (is_ok (Checks.same_count ~what:"planner invocations" ~expected:275 275));
  check "counts: a differing count fails"
    (is_error (Checks.same_count ~what:"planner invocations" ~expected:275 276))

let test_result_line () =
  let r =
    {
      Report.attempted = 3;
      failed = 0;
      errors = [];
      metrics = [ Report.metric "latency_p50_ms" "ms" 1.25; Report.metric "setup_s" "s" 2.0 ];
      notes = [];
    }
  in
  check "result line"
    (Report.result_line r
    = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": \
       {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}");
  check "result line: a failed check is incorrect"
    (String.sub (Report.result_line { r with Report.errors = [ "x" ] }) 0 17 = "{\"correct\": false")

let () =
  test_stats ();
  test_engine_reply ();
  test_plan_reply ();
  test_certificate ();
  test_search_winner ();
  test_outputs ();
  test_stats_delta ();
  test_counts ();
  test_result_line ();
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
