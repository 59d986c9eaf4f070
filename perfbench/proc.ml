(* Processes the benchmark starts, and what it reads about them. *)

(* Peak resident set ([VmHWM]) of a process in MB; [pid] is a number
   or ["self"]. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM for process " ^ pid)
      in
      find ())

(* Children not yet reaped, so that an interrupted run can stop them. *)
let live = ref []

let spawned pid = live := pid :: !live
let reaped pid = live := List.filter (fun p -> p <> pid) !live

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status ->
      reaped pid;
      status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* Signal a process and reap it; a process that already ended is only
   reaped. *)
let kill ?(signal = Sys.sigkill) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  ignore (waitpid pid : Unix.process_status)

let kill_all () = List.iter (fun pid -> kill pid) !live

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Scratch files of the benchmark live under one directory of the
   checkout it runs in. *)
let run_dir = ".perfbench_run"

let run_file name =
  mkdir_p run_dir;
  Filename.concat run_dir name

let copy_file src dst =
  let ic = open_in_bin src in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Exact counts of one (build, workload, seed) are kept in the run
   directory, and a later run of the same build and seed must read the
   same.  The build is named by the digest of the running executable,
   so a rebuilt program starts a fresh record.  Returns the errors. *)
let remembered_counts ~workload ~seed counts =
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = run_file (Printf.sprintf "counts-%s-%s-%d" build workload seed) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let rec read acc =
      match input_line ic with
      | line -> read (Scanf.sscanf line "%s %d" (fun k v -> (k, v)) :: acc)
      | exception End_of_file -> acc
    in
    let earlier = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []) in
    Checks.failures
      (List.filter_map
         (fun (what, got) ->
           Option.map (fun expected -> Checks.same_count ~what ~expected got) (List.assoc_opt what earlier))
         counts)
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) counts;
    close_out oc;
    Sys.rename tmp path;
    []
  end
