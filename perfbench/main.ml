(* The benchmark's entry point.

     main.exe --workload compile-cold|search-warm|serve-mixed
              --seed N --seconds S --trace 0|1 --layout-tool PATH [--smoke]

   prints every end-to-end metric (--trace 0) or every per-layer
   metric (--trace 1) as the last line of its output, one JSON object
   with the keys correct, attempted, failed and metrics.  It exits 1
   when an output or determinism check failed, and 2 on bad arguments.
   [perfbench/run.sh] builds the program and passes --layout-tool. *)

open Perfbench_lib

(* Inputs per workload in a smoke run. *)
let smoke_ops = 4

let usage () =
  prerr_endline
    "usage: main.exe --workload compile-cold|search-warm|serve-mixed --seed N --seconds S \
     --trace 0|1 --layout-tool PATH [--smoke]";
  exit 2

let () =
  (* an interrupted run stops the processes it started *)
  List.iter
    (fun (signal, code) ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Proc.kill_all ();
             exit code)))
    [ (Sys.sigterm, 143); (Sys.sigint, 130) ];
  (* a daemon that dies mid-request is an error reply, not our death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k ~default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let seed = int "seed" ~default:1 in
  let trace = int "trace" ~default:0 = 1 in
  match get "child-sweep" with
  | Some sweep ->
      Workload_cold.child ~seed ~sweep:(int_of_string sweep) ~check:(int "check" ~default:0 = 1)
        ~trace ~limit:(Option.map int_of_string (get "limit"))
  | None ->
      let limit = if get "smoke" = None then None else Some smoke_ops in
      (* a smoke run does the fewest whole rounds a workload allows *)
      let seconds = if limit = None then float_of_int (int "seconds" ~default:10) else 0.0 in
      let exe = Sys.executable_name in
      let workloads =
        match get "workload" with
        | Some "all" when limit <> None -> [ "compile-cold"; "search-warm"; "serve-mixed" ]
        | Some w -> [ w ]
        | None -> usage ()
      in
      let layout_tool () = match get "layout-tool" with Some p -> p | None -> usage () in
      let correct =
        List.map
          (fun w ->
            let r =
              match w with
              | "compile-cold" -> Workload_cold.run ~exe ~seed ~seconds ~trace ~limit
              | "search-warm" -> Workload_search.run ~seed ~seconds ~trace ~limit
              | "serve-mixed" ->
                  Workload_serve.run ~layout_tool:(layout_tool ()) ~seed ~seconds ~trace ~limit
              | _ -> usage ()
            in
            List.iter (fun e -> Printf.eprintf "%s: check failed: %s\n" w e) r.Report.errors;
            Printf.printf "%s: %s\n" w
              (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.Report.notes));
            print_endline (Report.result_line r);
            r.Report.errors = [])
          workloads
      in
      exit (if List.for_all Fun.id correct then 0 else 1)
