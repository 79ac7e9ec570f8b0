(* Tests for the NVM and cache models. *)
module Nvm = Sweep_mem.Nvm
module Cache = Sweep_mem.Cache
module Layout = Sweep_isa.Layout

let check = Alcotest.check

(* The word-index bounds asserts are off by default (hot path); keep
   them armed for the whole memory suite so layout bugs fail loudly. *)
let () = Cache.set_debug_checks true

let test_nvm_rw () =
  let nvm = Nvm.create () in
  Nvm.write_word nvm 0x100 42;
  check Alcotest.int "read back" 42 (Nvm.read_word nvm 0x100);
  check Alcotest.int "unwritten is zero" 0 (Nvm.read_word nvm 0x104)

let test_nvm_counters () =
  let nvm = Nvm.create () in
  Nvm.write_word nvm 0x40 1;
  Nvm.write_line nvm 0x80 (Array.make 16 9);
  ignore (Nvm.read_word nvm 0x40);
  ignore (Nvm.read_line nvm 0x80);
  check Alcotest.int "write events" 2 (Nvm.write_events nvm);
  check Alcotest.int "read events" 2 (Nvm.read_events nvm);
  check Alcotest.int "bytes" (4 + 64) (Nvm.bytes_written nvm);
  Nvm.reset_counters nvm;
  check Alcotest.int "reset" 0 (Nvm.write_events nvm)

let test_nvm_peek_poke_uncounted () =
  let nvm = Nvm.create () in
  Nvm.poke_word nvm 0x10 5;
  check Alcotest.int "poke visible" 5 (Nvm.peek_word nvm 0x10);
  check Alcotest.int "no events" 0 (Nvm.read_events nvm + Nvm.write_events nvm)

let test_nvm_alignment () =
  let nvm = Nvm.create () in
  Alcotest.(check bool) "unaligned word raises" true
    (match Nvm.read_word nvm 0x3 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unaligned line raises" true
    (match Nvm.read_line nvm 0x20 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range raises" true
    (match Nvm.read_word nvm Layout.nvm_bytes with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* The word checks are one test on the good path; the message still
     names the first rule broken, alignment before range. *)
  let rule f =
    match f () with
    | () -> "none"
    | exception Invalid_argument m ->
      if String.starts_with ~prefix:"Nvm: unaligned word address" m then
        "unaligned"
      else if String.ends_with ~suffix:"out of range" m then "range"
      else m
  in
  List.iter
    (fun (addr, expected) ->
      List.iter
        (fun (call, f) ->
          check Alcotest.string
            (Printf.sprintf "%s %d" call addr)
            expected
            (rule (fun () -> f addr)))
        [
          ("read_word", fun a -> ignore (Nvm.read_word nvm a));
          ("write_word", fun a -> Nvm.write_word nvm a 0);
          ("peek_word", fun a -> ignore (Nvm.peek_word nvm a));
          ("poke_word", fun a -> Nvm.poke_word nvm a 0);
        ])
    [
      (0x3, "unaligned"); (-2, "unaligned"); (Layout.nvm_bytes + 1, "unaligned");
      (-4, "range"); (Layout.nvm_bytes, "range"); (Layout.nvm_bytes - 4, "none");
    ]

let test_nvm_line_word_agree () =
  let nvm = Nvm.create () in
  let data = Array.init 16 (fun k -> k * 11) in
  Nvm.write_line nvm 0x1000 data;
  check Alcotest.int "word 5 of line" 55 (Nvm.read_word nvm (0x1000 + 20))

let test_nvm_image () =
  let nvm = Nvm.create () in
  Nvm.poke_word nvm 0x100 1;
  Nvm.poke_word nvm 0x104 2;
  check (Alcotest.array Alcotest.int) "image" [| 1; 2 |]
    (Nvm.image nvm ~lo:0x100 ~hi:0x108)

let make_cache () = Cache.create ~size_bytes:1024 ~assoc:2

let test_cache_geometry () =
  let c = make_cache () in
  check Alcotest.int "line count" 16 (Cache.line_count c);
  check Alcotest.int "size" 1024 (Cache.size_bytes c);
  check Alcotest.int "assoc" 2 (Cache.assoc c);
  Alcotest.(check bool) "bad size raises" true
    (match Cache.create ~size_bytes:1000 ~assoc:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cache_install_find () =
  let c = make_cache () in
  let data = Array.init 16 (fun k -> k + 100) in
  let li = Cache.install c 0x2000 data in
  check Alcotest.int "read word" 103 (Cache.read_word c li 0x200C);
  let hit = Cache.find c 0x2004 in
  Alcotest.(check bool) "find same line" true (hit = li);
  Alcotest.(check bool) "other line misses" true
    (Cache.find c 0x4000 = Cache.no_line)

let test_cache_write_word () =
  let c = make_cache () in
  let li = Cache.install c 0 (Array.make 16 0) in
  Cache.write_word c li 8 77;
  check Alcotest.int "written" 77 (Cache.read_word c li 8)

let test_cache_lru_eviction () =
  let c = make_cache () in
  (* 8 sets: addresses 0, 0x2000 and 0x4000 all map to set 0. *)
  let l0 = Cache.install c 0x0 (Array.make 16 1) in
  let l1 = Cache.install c 0x2000 (Array.make 16 2) in
  Cache.touch c l0;
  (* l1 is now LRU; the next fill of set 0 must evict it. *)
  let victim = Cache.victim c 0x4000 in
  check Alcotest.int "victim is LRU" (Cache.line_addr c l1)
    (Cache.line_addr c victim);
  ignore (Cache.install c 0x4000 (Array.make 16 3));
  Alcotest.(check bool) "evicted line gone" true
    (Cache.find c 0x2000 = Cache.no_line);
  Alcotest.(check bool) "touched line survives" true
    (Cache.find c 0x0 <> Cache.no_line)

let test_cache_victim_prefers_invalid () =
  let c = make_cache () in
  ignore (Cache.install c 0x0 (Array.make 16 1));
  let victim = Cache.victim c 0x2000 in
  Alcotest.(check bool) "invalid way preferred" true (not (Cache.valid c victim))

let test_cache_dirty_tracking () =
  let c = make_cache () in
  let l0 = Cache.install c 0x0 (Array.make 16 0) in
  let _l1 = Cache.install c 0x40 (Array.make 16 0) in
  Cache.set_dirty c l0 ~region:7;
  check Alcotest.int "dirty region recorded" 7 (Cache.dirty_region c l0);
  check Alcotest.int "one dirty line" 1 (List.length (Cache.dirty_lines c));
  Cache.clean_all c;
  check Alcotest.int "clean_all clears" 0 (List.length (Cache.dirty_lines c));
  Alcotest.(check bool) "data survives clean" true
    (Cache.find c 0x0 <> Cache.no_line);
  Cache.invalidate_all c;
  Alcotest.(check bool) "invalidate drops" true
    (Cache.find c 0x0 = Cache.no_line)

let test_cache_counters () =
  let c = make_cache () in
  ignore (Cache.install c 0x40 (Array.make 16 0));
  ignore (Cache.lookup c 0x40);
  ignore (Cache.lookup c 0x7C);
  check Alcotest.int "a miss counts nothing" Cache.no_line
    (Cache.lookup c 0x80);
  Cache.record_miss c;
  check Alcotest.int "hits" 2 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  check (Alcotest.float 1e-9) "miss rate" (1.0 /. 3.0) (Cache.miss_rate c);
  Cache.reset_counters c;
  check (Alcotest.float 1e-9) "empty rate" 0.0 (Cache.miss_rate c)

let prop_cache_set_discipline =
  QCheck2.Test.make ~name:"cache: at most assoc lines per set" ~count:100
    QCheck2.Gen.(list_size (int_range 1 80) (int_range 0 255))
    (fun line_ids ->
      let c = make_cache () in
      List.iter
        (fun id -> ignore (Cache.install c (id * 64) (Array.make 16 id)))
        line_ids;
      (* Count lines per set. *)
      let sets = Hashtbl.create 16 in
      Cache.iter_lines c (fun li ->
          if Cache.valid c li then begin
            let set = Cache.line_addr c li / 64 mod 8 in
            Hashtbl.replace sets set
              (1 + Option.value ~default:0 (Hashtbl.find_opt sets set))
          end);
      Hashtbl.fold (fun _ n ok -> ok && n <= 2) sets true)

let prop_cache_find_returns_installed =
  QCheck2.Test.make ~name:"cache: find returns latest install" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 31))
    (fun ids ->
      let c = make_cache () in
      let last = Hashtbl.create 8 in
      List.iteri
        (fun i id ->
          ignore (Cache.install c (id * 64) (Array.make 16 i));
          Hashtbl.replace last id i)
        ids;
      Hashtbl.fold
        (fun id stamp ok ->
          ok
          &&
          let li = Cache.find c (id * 64) in
          li = Cache.no_line (* may have been evicted *)
          || Cache.read_word c li (id * 64) = stamp)
        last true)

(* [lookup] is the designs' fused hit path: against a twin cache driven
   through [find]/[touch]/[read_word]/[write_word] with the same fills,
   every lookup must agree on hit or miss, return the position of the
   word [read_word] reads, count exactly the hits, and leave LRU state
   (hence later victims) identical.  Geometries include a
   non-power-of-two set count (the [mod] fallback). *)
let prop_cache_lookup_fused =
  QCheck2.Test.make ~name:"cache: lookup = find + hit + touch"
    ~count:200 ~print:(fun (g, ops) ->
      Printf.sprintf "geometry %d, %d ops" g (List.length ops))
    QCheck2.Gen.(
      pair (int_range 0 2)
        (list_size (int_range 1 120)
           (pair bool (map (fun w -> w * 4) (int_range 0 1023)))))
    (fun (g, ops) ->
      let size, assoc = [| (1024, 2); (768, 2); (512, 1) |].(g) in
      let a = Cache.create ~size_bytes:size ~assoc
      and b = Cache.create ~size_bytes:size ~assoc in
      let fill c addr =
        let li = Cache.victim c addr in
        Cache.install_victim c li addr;
        Array.fill (Cache.data c) (Cache.data_pos c li) 16 (addr / 64)
      in
      let hits = ref 0 in
      List.for_all
        (fun (write, addr) ->
          let pos = Cache.lookup a addr and li = Cache.find b addr in
          let agree =
            if li = Cache.no_line then begin
              fill a addr;
              fill b addr;
              pos = Cache.no_line
            end
            else begin
              incr hits;
              Cache.touch b li;
              if write then begin
                (Cache.data a).(pos) <- addr;
                Cache.write_word b li addr addr
              end;
              pos lsr Cache.pos_line_shift = li
              && (Cache.data a).(pos) = Cache.read_word b li addr
            end
          in
          agree && Cache.hits a = !hits && a.Cache.lru = b.Cache.lru)
        ops)

(* ---- paged NVM against a flat model ---- *)

(* Nvm pages hold 4096 words (16 KiB of address space); addresses are
   drawn mostly at their edges, on the checkpoint line and on the last
   line of NVM, where a paging slip would show. *)
let page_bytes = 4096 * Layout.word_bytes
let last_line = Layout.nvm_bytes - Layout.line_bytes

type nvm_op =
  | Write_word of int * int
  | Poke_word of int * int
  | Write_line of int * int array
  | Write_line_from of int * int array * int
  | Write_line_torn of int * int array * int
  | Read_word of int
  | Read_line_into of int
  | Peek_word of int
  | Image of int * int
  | Bad of int  (* an unaligned or out-of-range address, for every call *)

let print_nvm_op = function
  | Write_word (a, v) -> Printf.sprintf "write_word %#x %d" a v
  | Poke_word (a, v) -> Printf.sprintf "poke_word %#x %d" a v
  | Write_line (b, _) -> Printf.sprintf "write_line %#x" b
  | Write_line_from (b, _, pos) ->
    Printf.sprintf "write_line_from %#x ~src_pos:%d" b pos
  | Write_line_torn (b, _, w) ->
    Printf.sprintf "write_line_torn %#x ~words:%d" b w
  | Read_word a -> Printf.sprintf "read_word %#x" a
  | Read_line_into b -> Printf.sprintf "read_line_into %#x" b
  | Peek_word a -> Printf.sprintf "peek_word %#x" a
  | Image (lo, hi) -> Printf.sprintf "image %#x %#x" lo hi
  | Bad a -> Printf.sprintf "bad %#x" a

let gen_nvm_ops =
  let open QCheck2.Gen in
  let line =
    frequency
      [
        ( 4,
          let+ p = int_range 1 (Layout.nvm_bytes / page_bytes - 1)
          and+ before = bool in
          (p * page_bytes) - if before then Layout.line_bytes else 0 );
        (1, return 0);
        (2, return Layout.default_ckpt_base);
        (2, return last_line);
        ( 1,
          map (fun l -> l * Layout.line_bytes)
            (int_bound ((Layout.nvm_bytes / Layout.line_bytes) - 1)) );
      ]
  in
  let word =
    let+ b = line and+ k = int_bound (Layout.words_per_line - 1) in
    b + (k * Layout.word_bytes)
  in
  let data = array_size (return Layout.words_per_line) int in
  let bad =
    oneof
      [
        (let+ w = word and+ off = int_range 1 (Layout.word_bytes - 1) in
         w + off);
        map (fun w -> -w) (int_range 1 (2 * Layout.line_bytes));
        map
          (fun k -> Layout.nvm_bytes + (k * Layout.word_bytes))
          (int_bound 32);
      ]
  in
  let op =
    frequency
      [
        (3, map2 (fun a v -> Write_word (a, v)) word int);
        (2, map2 (fun a v -> Poke_word (a, v)) word int);
        (2, map2 (fun b d -> Write_line (b, d)) line data);
        ( 2,
          let+ b = line
          and+ pos = int_bound 8
          and+ src = array_size (return (Layout.words_per_line + 8)) int in
          Write_line_from (b, src, pos) );
        ( 2,
          let+ b = line
          and+ d = data
          and+ w = int_range 1 (Layout.words_per_line - 1) in
          Write_line_torn (b, d, w) );
        (3, map (fun a -> Read_word a) word);
        (2, map (fun b -> Read_line_into b) line);
        (2, map (fun a -> Peek_word a) word);
        ( 2,
          let+ lo = word and+ k = int_bound 40 in
          let hi = lo + (k * Layout.word_bytes) in
          Image (lo, min hi (Layout.nvm_bytes - Layout.word_bytes)) );
        (1, map (fun a -> Bad a) bad);
      ]
  in
  list_size (int_range 1 60) op

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Replays [ops] on a fresh NVM and on a word table, checking every
   read, image and counter as it goes. *)
let nvm_matches_model ops =
  let nvm = Nvm.create () in
  let model = Hashtbl.create 64 in
  let reads = ref 0 and writes = ref 0 and bytes = ref 0 in
  let get a = Option.value ~default:0 (Hashtbl.find_opt model a) in
  let put_line b src pos words =
    for k = 0 to words - 1 do
      Hashtbl.replace model (b + (k * Layout.word_bytes)) src.(pos + k)
    done
  in
  let written n =
    incr writes;
    bytes := !bytes + n
  in
  let ok_op = function
    | Write_word (a, v) ->
      Nvm.write_word nvm a v;
      Hashtbl.replace model a v;
      written Layout.word_bytes;
      true
    | Poke_word (a, v) ->
      Nvm.poke_word nvm a v;
      Hashtbl.replace model a v;
      true
    | Write_line (b, d) ->
      Nvm.write_line nvm b d;
      put_line b d 0 Layout.words_per_line;
      written Layout.line_bytes;
      true
    | Write_line_from (b, src, pos) ->
      Nvm.write_line_from nvm b ~src ~src_pos:pos;
      put_line b src pos Layout.words_per_line;
      written Layout.line_bytes;
      true
    | Write_line_torn (b, d, w) ->
      Nvm.write_line_torn nvm b d ~words:w;
      put_line b d 0 w;
      written (w * Layout.word_bytes);
      true
    | Read_word a ->
      incr reads;
      Nvm.read_word nvm a = get a
    | Read_line_into b ->
      incr reads;
      let dst = Array.make (Layout.words_per_line + 2) (-1) in
      Nvm.read_line_into nvm b ~dst ~dst_pos:1;
      dst.(0) = -1
      && dst.(Layout.words_per_line + 1) = -1
      && Array.for_all Fun.id
           (Array.init Layout.words_per_line (fun k ->
                dst.(k + 1) = get (b + (k * Layout.word_bytes))))
    | Peek_word a -> Nvm.peek_word nvm a = get a
    | Image (lo, hi) ->
      Nvm.image nvm ~lo ~hi
      = Array.init ((hi - lo) / Layout.word_bytes) (fun k ->
            get (lo + (k * Layout.word_bytes)))
    | Bad a ->
      let line = Array.make Layout.words_per_line 1 in
      List.for_all raises_invalid
        [
          (fun () -> ignore (Nvm.read_word nvm a));
          (fun () -> Nvm.write_word nvm a 1);
          (fun () -> ignore (Nvm.peek_word nvm a));
          (fun () -> Nvm.poke_word nvm a 1);
          (fun () -> ignore (Nvm.read_line nvm a));
          (fun () -> Nvm.read_line_into nvm a ~dst:line ~dst_pos:0);
          (fun () -> Nvm.write_line nvm a line);
          (fun () -> Nvm.write_line_from nvm a ~src:line ~src_pos:0);
          (fun () -> Nvm.write_line_torn nvm a line ~words:1);
          (fun () -> ignore (Nvm.image nvm ~lo:a ~hi:a));
        ]
  in
  let counters_agree () =
    Nvm.read_events nvm = !reads
    && Nvm.write_events nvm = !writes
    && Nvm.bytes_written nvm = !bytes
  in
  List.for_all (fun op -> ok_op op && counters_agree ()) ops
  &&
  (* The shared zero page was never written: a fresh NVM still reads 0
     everywhere the sequence wrote. *)
  let fresh = Nvm.create () in
  Hashtbl.fold (fun a _ ok -> ok && Nvm.peek_word fresh a = 0) model true

let prop_nvm_paged_model =
  QCheck2.Test.make ~name:"nvm: paged store = flat model" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map print_nvm_op ops))
    gen_nvm_ops nvm_matches_model

let suite =
  [
    Alcotest.test_case "nvm read/write" `Quick test_nvm_rw;
    Alcotest.test_case "nvm counters" `Quick test_nvm_counters;
    Alcotest.test_case "nvm peek/poke" `Quick test_nvm_peek_poke_uncounted;
    Alcotest.test_case "nvm alignment" `Quick test_nvm_alignment;
    Alcotest.test_case "nvm line/word agree" `Quick test_nvm_line_word_agree;
    Alcotest.test_case "nvm image" `Quick test_nvm_image;
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "cache install/find" `Quick test_cache_install_find;
    Alcotest.test_case "cache write word" `Quick test_cache_write_word;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache invalid preferred" `Quick
      test_cache_victim_prefers_invalid;
    Alcotest.test_case "cache dirty tracking" `Quick test_cache_dirty_tracking;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_nvm_paged_model;
        prop_cache_set_discipline;
        prop_cache_find_returns_installed;
        prop_cache_lookup_fused;
      ]
