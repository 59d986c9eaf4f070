(* The benchmark's inputs, all derived from the kernel suite the
   library ships ({!Tir.Kernels}) and the machine models
   ({!Gpusim.Machine.all_with_extras}), ordered by a seeded shuffle. *)

type triple = { kernel : Tir.Kernels.kernel; machine : Gpusim.Machine.t; size : int }

(* The admission rule of the experiment harness and the serve trace:
   TMA-class kernels need wgmma, and kernels with large shared-memory
   tiles need 128 KiB per CTA. *)
let admitted (k : Tir.Kernels.kernel) (m : Gpusim.Machine.t) =
  not
    ((k.Tir.Kernels.needs_wgmma && not m.Gpusim.Machine.has_wgmma)
    || (k.Tir.Kernels.needs_large_smem && m.Gpusim.Machine.smem_bytes < 128 * 1024))

(* (kernel, machine) pairs in suite order. *)
let pairs () =
  List.concat_map
    (fun m ->
      List.filter_map
        (fun k -> if admitted k m then Some (k, m) else None)
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras

(* Every (kernel, machine, size) triple the suite admits. *)
let triples () =
  List.concat_map
    (fun (k, m) -> List.map (fun size -> { kernel = k; machine = m; size }) k.Tir.Kernels.sizes)
    (pairs ())

(* The smallest-size tile of each pair. *)
let tiles () =
  List.map
    (fun (k, m) -> { kernel = k; machine = m; size = List.hd k.Tir.Kernels.sizes })
    (pairs ())

let name t =
  Printf.sprintf "%s/%s/%d" t.kernel.Tir.Kernels.name t.machine.Gpusim.Machine.name t.size

let build t = t.kernel.Tir.Kernels.build ~size:t.size

let find_machine name =
  List.find (fun m -> String.equal m.Gpusim.Machine.name name) Gpusim.Machine.all_with_extras

(* Fisher-Yates with the benchmark's own generator: the same [rng]
   state gives the same order. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [sample rng n xs]: [n] distinct elements of [xs] in seeded order. *)
let sample rng n xs = List.filteri (fun i _ -> i < n) (shuffle rng xs)

(* The seed of every generator the benchmark uses: one per purpose, so
   that (say) the order of a sweep does not shift when a check samples
   one more tile. *)
let rng ~seed ~purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

(* The name exact counts of a workload are remembered under: a smoke
   run over [k] inputs counts other things than a full one. *)
let workload_key workload = function
  | None -> workload
  | Some k -> Printf.sprintf "%s-smoke%d" workload k
