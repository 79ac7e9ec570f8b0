(* Order statistics for the benchmark's reports.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) exactly, so the spreads this program
   prints are the ones a reader recomputes from the raw samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [(q1, q3)]; a single sample is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [||] -> (0.0, 0.0)
  | [| x |] -> (x, x)
  | a ->
    let ld = Array.length a in
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

(* The tail a sample of [n] supports: the highest percentile of a fixed
   ladder with at least ten samples beyond it (p98 for 500 samples, p95
   for 324, p90 for 130), or the median below 20 samples. *)
let tail_ladder = [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0 ]

let tail_pct n =
  match
    List.find_opt
      (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
      tail_ladder
  with
  | Some p -> p
  | None -> 50.0

(* Nearest-rank percentile. *)
let percentile xs p =
  match sorted xs with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
