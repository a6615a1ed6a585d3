(* Order statistics over raw samples. Every percentile the benchmark
   prints is computed here from the samples themselves, never from the
   program's log2 histograms, whose quantiles are bucket bounds. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it *)
let percentile samples q =
  match sorted samples with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median samples =
  match sorted samples with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
