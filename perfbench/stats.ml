(* Summary statistics of the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it.  [p] is in [0, 1]. *)
let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* The median proper (mean of the two middle samples when [n] is even). *)
let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Geometric mean of positive samples; a sample <= 0 has no logarithm
   and is a caller error. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      List.iter
        (fun x -> if not (x > 0.0) then invalid_arg "Stats.geomean: non-positive sample")
        xs;
      exp (List.fold_left (fun s x -> s +. log x) 0.0 xs /. float_of_int (List.length xs))
