(* Array-backed so [mark] — hit on every clean->dirty transition in the
   cycle loop — never allocates in steady state.  Dedup is a linear scan:
   the compiler's store-threshold invariant bounds the table by the
   persist-buffer capacity, so the scan is short; the architectural
   table is a hardware bit-vector anyway, so no cost is modelled.  The
   backing arrays grow geometrically and are kept across [clear], so
   after warm-up the table is allocation-free. *)
type t = {
  mutable bases : int array;
  mutable ways : int array;
  mutable count : int;
}

let create () = { bases = Array.make 64 0; ways = Array.make 64 0; count = 0 }

let rec scan bases n base i =
  if i >= n then -1
  else if Array.unsafe_get bases i = base then i
  else scan bases n base (i + 1)

let grow a n =
  let bigger = Array.make (2 * n) 0 in
  Array.blit a 0 bigger 0 n;
  bigger

let mark t base ~way =
  let n = t.count in
  if scan t.bases n base 0 < 0 then begin
    if n = Array.length t.bases then begin
      t.bases <- grow t.bases n;
      t.ways <- grow t.ways n
    end;
    Array.unsafe_set t.bases n base;
    Array.unsafe_set t.ways n way;
    t.count <- n + 1
  end

let bases t = Array.to_list (Array.sub t.bases 0 t.count)
let clear t = t.count <- 0
