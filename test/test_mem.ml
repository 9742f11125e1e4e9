(* Memory-subsystem tests: physical memory, PTEs (key field), the Sv39
   walker, the TLB, and the MMU's ROLoad condition. *)

module Phys_mem = Roload_mem.Phys_mem
module Perm = Roload_mem.Perm
module Pte = Roload_mem.Pte
module Page_table = Roload_mem.Page_table
module Tlb = Roload_mem.Tlb
module Mmu = Roload_mem.Mmu

let page = Page_table.page_size

let make_env () =
  let mem = Phys_mem.create ~size:(4 * 1024 * 1024) in
  let next = ref 1 in
  let alloc_frame () =
    let f = !next in
    incr next;
    Phys_mem.fill mem ~addr:(f * page) ~len:page '\000';
    f
  in
  let pt = Page_table.create ~mem ~alloc_frame in
  (mem, pt)

let test_phys_mem () =
  let mem = Phys_mem.create ~size:65536 in
  Phys_mem.write_u64 mem 128 0x1122334455667788L;
  Alcotest.(check int64) "u64 rt" 0x1122334455667788L (Phys_mem.read_u64 mem 128);
  Alcotest.(check int) "byte LE" 0x88 (Phys_mem.read_u8 mem 128);
  Alcotest.(check int) "u16 LE" 0x7788 (Phys_mem.read_u16 mem 128);
  Phys_mem.write_string mem ~addr:1000 "hello";
  Alcotest.(check string) "string rt" "hello" (Phys_mem.read_string mem ~addr:1000 ~len:5);
  Alcotest.check_raises "oob" (Phys_mem.Out_of_range 65536) (fun () ->
      ignore (Phys_mem.read_u8 mem 65536))

(* Phys_mem against a flat [Bytes] model: random stores of every width
   (aligned and page-straddling, through the accessors and through
   [Phys_mem.page]), strings, whole-page and partial fills, page copies,
   bit flips, snapshots and forks, on a memory that ends
   mid-chunk and mid-page.  Addresses cluster on pages next to chunk
   boundaries so that copies, stores and snapshots collide. *)
let prop_phys_mem_model =
  let pb = Phys_mem.page_bytes in
  let size = ((128 + 37) * pb) + 1234 in
  let npages = (size + pb - 1) / pb in
  let hot = [| 0; 1; 2; 126; 127; 128; 129; npages - 2; npages - 1 |] in
  let page_gen =
    QCheck.Gen.(
      frequency
        [ (4, map (fun i -> hot.(i)) (int_bound (Array.length hot - 1)));
          (1, int_bound (npages - 1)) ])
  in
  (* an address in a hot page, often a few bytes short of its end *)
  let addr_gen ~len =
    QCheck.Gen.(
      map3
        (fun p near_end off ->
          let a = (p * pb) + if near_end then pb - 1 - (off land 7) else off in
          max 0 (min a (size - len)))
        page_gen bool (int_bound (pb - 1)))
  in
  let op =
    QCheck.Gen.(
      frequency
        [ ( 8,
            oneofl [ 1; 2; 4; 8 ] >>= fun w ->
            map3 (fun a v via_page -> `Store (w, a, v, via_page)) (addr_gen ~len:w) ui64 bool );
          ( 4,
            oneofl [ 1; 2; 4; 8 ] >>= fun w -> map (fun a -> `Load (w, a)) (addr_gen ~len:w) );
          ( 2,
            int_bound (2 * pb) >>= fun n ->
            map2 (fun a c -> `String (a, String.make n c)) (addr_gen ~len:n) printable );
          ( 2,
            map3 (fun p n zero -> `Fill_pages (p, n, if zero then '\000' else 'z'))
              page_gen (int_range 1 3) bool );
          ( 1,
            int_bound 300 >>= fun n ->
            map2 (fun a c -> `Fill (a, n, c)) (addr_gen ~len:n) (oneofl [ '\000'; 'f' ]) );
          (3, map2 (fun src dst -> `Copy_page (src, dst)) page_gen page_gen);
          (1, map2 (fun a bit -> `Flip (a, bit)) (addr_gen ~len:8) (int_bound 63));
          (2, return `Snapshot);
          (2, map (fun i -> `Fork i) nat) ])
  in
  let print_op = function
    | `Store (w, a, v, via_page) ->
      Printf.sprintf "st%d%s %#x=%Lx" w (if via_page then "p" else "") a v
    | `Load (w, a) -> Printf.sprintf "ld%d %#x" w a
    | `String (a, s) -> Printf.sprintf "str %#x+%d" a (String.length s)
    | `Fill_pages (p, n, c) -> Printf.sprintf "fillpg %d+%d %C" p n c
    | `Fill (a, n, c) -> Printf.sprintf "fill %#x+%d %C" a n c
    | `Copy_page (s, d) -> Printf.sprintf "cp %d->%d" s d
    | `Flip (a, b) -> Printf.sprintf "flip %#x.%d" a b
    | `Snapshot -> "snap"
    | `Fork i -> Printf.sprintf "fork %d" i
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      QCheck.Gen.(list_size (int_range 1 50) op)
  in
  let model_read m a w =
    let v = ref 0L in
    for i = w - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Bytes.get_uint8 m (a + i)))
    done;
    !v
  in
  let model_write m a w v =
    for i = 0 to w - 1 do
      Bytes.set_uint8 m (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done
  in
  let mem_read mem a w =
    match w with
    | 1 -> Int64.of_int (Phys_mem.read_u8 mem a)
    | 2 -> Int64.of_int (Phys_mem.read_u16 mem a)
    | 4 -> Int64.of_int (Phys_mem.read_u32 mem a)
    | _ -> Phys_mem.read_u64 mem a
  in
  let mem_write mem a w v ~via_page =
    if via_page && (a land (pb - 1)) + w <= pb then begin
      let pg = Phys_mem.page mem a ~len:w ~write:true and off = a land (pb - 1) in
      match w with
      | 1 -> Bytes.set_uint8 pg off (Int64.to_int v land 0xFF)
      | 2 -> Bytes.set_uint16_le pg off (Int64.to_int v land 0xFFFF)
      | 4 -> Bytes.set_int32_le pg off (Int64.to_int32 v)
      | _ -> Bytes.set_int64_le pg off v
    end
    else
      match w with
      | 1 -> Phys_mem.write_u8 mem a (Int64.to_int v land 0xFF)
      | 2 -> Phys_mem.write_u16 mem a (Int64.to_int v land 0xFFFF)
      | 4 -> Phys_mem.write_u32 mem a (Int64.to_int v land 0xFFFFFFFF)
      | _ -> Phys_mem.write_u64 mem a v
  in
  (* what [diff_images a b] must report for two images with models [ma], [mb] *)
  let model_diff ma mb =
    List.filter_map
      (fun p ->
        let len = min pb (size - (p * pb)) in
        let rec first a =
          if Bytes.get ma a = Bytes.get mb a then first (a + 1)
          else
            { Phys_mem.page = p; addr = a; a_byte = Bytes.get_uint8 ma a;
              b_byte = Bytes.get_uint8 mb a }
        in
        if Bytes.equal (Bytes.sub ma (p * pb) len) (Bytes.sub mb (p * pb) len) then None
        else Some (first (p * pb)))
      (List.init npages Fun.id)
  in
  let contents mem = Phys_mem.read_string mem ~addr:0 ~len:size in
  QCheck.Test.make ~count:200 ~name:"Phys_mem = flat Bytes model" arb (fun ops ->
      let mem = ref (Phys_mem.create ~size) and m = ref (Bytes.make size '\000') in
      let images = ref [] in
      let nth i = List.nth !images (i mod List.length !images) in
      let step = function
        | `Store (w, a, v, via_page) ->
          mem_write !mem a w v ~via_page;
          model_write !m a w v;
          true
        | `Load (w, a) -> Int64.equal (mem_read !mem a w) (model_read !m a w)
        | `String (a, s) ->
          Phys_mem.write_string !mem ~addr:a s;
          Bytes.blit_string s 0 !m a (String.length s);
          String.equal (Phys_mem.read_string !mem ~addr:a ~len:(String.length s)) s
        | `Fill_pages (p, n, c) ->
          let a = p * pb in
          let n = min (n * pb) (size - a) in
          Phys_mem.fill !mem ~addr:a ~len:n c;
          Bytes.fill !m a n c;
          true
        | `Fill (a, n, c) ->
          Phys_mem.fill !mem ~addr:a ~len:n c;
          Bytes.fill !m a n c;
          true
        | `Copy_page (src, dst) when (max src dst + 1) * pb > size -> (
          (* the last page is partial: only whole pages are copied *)
          match Phys_mem.copy_page !mem ~src ~dst with
          | () -> false
          | exception Phys_mem.Out_of_range _ -> true)
        | `Copy_page (src, dst) ->
          Phys_mem.copy_page !mem ~src ~dst;
          Bytes.blit (Bytes.sub !m (src * pb) pb) 0 !m (dst * pb) pb;
          true
        | `Flip (a, bit) ->
          Phys_mem.flip_bit !mem ~addr:a ~bit;
          model_write !m a 8 (Int64.logxor (model_read !m a 8) (Int64.shift_left 1L bit));
          true
        | `Snapshot ->
          images := !images @ [ (Phys_mem.snapshot !mem, Bytes.copy !m) ];
          true
        | `Fork i ->
          if !images <> [] then begin
            let img, mi = nth i in
            mem := Phys_mem.fork img;
            m := Bytes.copy mi
          end;
          true
      in
      List.for_all step ops
      && String.equal (contents !mem) (Bytes.to_string !m)
      &&
      let live = (Phys_mem.snapshot !mem, !m) in
      List.for_all
        (fun (img, mi) ->
          String.equal (contents (Phys_mem.fork img)) (Bytes.to_string mi)
          && Phys_mem.diff_images img (fst live) = model_diff mi (snd live))
        !images
      && String.equal (contents (Phys_mem.create ~size)) (String.make size '\000'))

let test_pte_fields () =
  let pte = Pte.make ~ppn:0x1234 ~perms:Perm.ro ~user:true ~key:777 in
  Alcotest.(check bool) "valid" true (Pte.valid pte);
  Alcotest.(check bool) "leaf" true (Pte.is_leaf pte);
  Alcotest.(check bool) "readable" true (Pte.readable pte);
  Alcotest.(check bool) "not writable" false (Pte.writable pte);
  Alcotest.(check int) "ppn" 0x1234 (Pte.ppn pte);
  Alcotest.(check int) "key" 777 (Pte.key pte);
  let pte2 = Pte.with_key pte 42 in
  Alcotest.(check int) "with_key" 42 (Pte.key pte2);
  Alcotest.(check int) "ppn preserved" 0x1234 (Pte.ppn pte2);
  let table = Pte.make_table ~ppn:9 in
  Alcotest.(check bool) "table not leaf" false (Pte.is_leaf table)

(* the key lives in the reserved top-10 PTE bits (paper §III-A) *)
let test_pte_key_position () =
  let pte = Pte.make ~ppn:1 ~perms:Perm.ro ~user:true ~key:0x3FF in
  let raw = Pte.to_int64 pte in
  Alcotest.(check int64) "top 10 bits" 0x3FFL (Int64.shift_right_logical raw 54)

let test_walk_and_map () =
  let _mem, pt = make_env () in
  let va = 0x40000000 in
  Page_table.map_page pt ~va ~ppn:0x55 ~perms:Perm.rw ~user:true ~key:3;
  (match Page_table.walk pt va with
  | Ok { pte; steps; level; _ } ->
    Alcotest.(check int) "ppn" 0x55 (Pte.ppn pte);
    Alcotest.(check int) "key" 3 (Pte.key pte);
    Alcotest.(check int) "leaf level" 0 level;
    Alcotest.(check int) "3-level walk" 3 steps
  | Error _ -> Alcotest.fail "expected mapping");
  (match Page_table.walk pt (va + page) with
  | Error Page_table.Not_mapped -> ()
  | Error Page_table.Bad_alignment | Ok _ -> Alcotest.fail "next page must be unmapped");
  Alcotest.(check int) "translate" ((0x55 * page) lor 0x123)
    (Page_table.translate_exn pt (va lor 0x123));
  Alcotest.(check int) "mapped pages" 1 (Page_table.mapped_pages pt);
  Page_table.unmap_page pt ~va;
  match Page_table.walk pt va with
  | Error Page_table.Not_mapped -> ()
  | Error Page_table.Bad_alignment | Ok _ -> Alcotest.fail "unmap failed"

let test_set_key_and_perms () =
  let _mem, pt = make_env () in
  let va = 0x10000 in
  Page_table.map_page pt ~va ~ppn:2 ~perms:Perm.rw ~user:true ~key:0;
  (match Page_table.set_key pt ~va ~key:99 with Ok () -> () | Error _ -> Alcotest.fail "set_key");
  (match Page_table.set_perms pt ~va ~perms:Perm.ro with Ok () -> () | Error _ -> Alcotest.fail "set_perms");
  match Page_table.walk pt va with
  | Ok { pte; _ } ->
    Alcotest.(check int) "new key" 99 (Pte.key pte);
    Alcotest.(check bool) "now read-only" false (Pte.writable pte)
  | Error _ -> Alcotest.fail "walk"

let test_tlb_lru () =
  let tlb = Tlb.create ~name:"test" ~entries:2 in
  let p n = Pte.make ~ppn:n ~perms:Perm.rw ~user:true ~key:0 in
  ignore (Tlb.insert tlb ~vpn:1 ~pte:(p 1));
  ignore (Tlb.insert tlb ~vpn:2 ~pte:(p 2));
  Alcotest.(check bool) "hit 1" true (Tlb.lookup tlb 1 <> None);
  (* inserting a third entry must evict vpn 2 (least recently used) *)
  ignore (Tlb.insert tlb ~vpn:3 ~pte:(p 3));
  Alcotest.(check bool) "1 survives" true (Tlb.lookup tlb 1 <> None);
  Alcotest.(check bool) "2 evicted" true (Tlb.lookup tlb 2 = None);
  Alcotest.(check bool) "3 present" true (Tlb.lookup tlb 3 <> None);
  let st = Tlb.stats tlb in
  Alcotest.(check int) "misses counted" 1 st.Tlb.misses;
  Tlb.invalidate tlb ~vpn:3;
  Alcotest.(check bool) "3 invalidated" true (Tlb.lookup tlb 3 = None);
  Tlb.flush tlb;
  Alcotest.(check int) "flushed empty" 0 (Tlb.occupancy tlb)

let make_mmu ?(roload = true) pt =
  Mmu.create ~page_table:pt ~itlb_entries:4 ~dtlb_entries:4 ~roload_check_enabled:roload

let test_mmu_basic () =
  let _mem, pt = make_env () in
  let va = 0x20000 in
  Page_table.map_page pt ~va ~ppn:7 ~perms:Perm.rw ~user:true ~key:0;
  let mmu = make_mmu pt in
  (match Mmu.translate mmu ~access:Perm.Load va with
  | Ok { pa; tlb_hit; walk_steps } ->
    Alcotest.(check int) "pa" (7 * page) pa;
    Alcotest.(check bool) "first is miss" false tlb_hit;
    Alcotest.(check int) "walk steps" 3 walk_steps
  | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (match Mmu.translate mmu ~access:Perm.Load va with
  | Ok { tlb_hit; walk_steps; _ } ->
    Alcotest.(check bool) "second is hit" true tlb_hit;
    Alcotest.(check int) "no walk" 0 walk_steps
  | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (* store allowed on rw, fetch denied *)
  (match Mmu.translate mmu ~access:Perm.Store va with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  match Mmu.translate mmu ~access:Perm.Fetch va with
  | Error (Mmu.Page_fault _) -> ()
  | Error (Mmu.Roload_fault _) | Ok _ -> Alcotest.fail "fetch of rw page must fault"

let test_mmu_roload_conditions () =
  let _mem, pt = make_env () in
  let ro_keyed = 0x30000 and ro_plain = 0x31000 and rw = 0x32000 and rx = 0x33000 in
  Page_table.map_page pt ~va:ro_keyed ~ppn:3 ~perms:Perm.ro ~user:true ~key:7;
  Page_table.map_page pt ~va:ro_plain ~ppn:4 ~perms:Perm.ro ~user:true ~key:0;
  Page_table.map_page pt ~va:rw ~ppn:5 ~perms:Perm.rw ~user:true ~key:7;
  Page_table.map_page pt ~va:rx ~ppn:6 ~perms:Perm.rx ~user:true ~key:7;
  let mmu = make_mmu pt in
  let roload key va = Mmu.translate mmu ~access:(Perm.Roload key) va in
  (* matching key on a read-only page: allowed *)
  (match roload 7 ro_keyed with Ok _ -> () | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (* wrong key: the new fault class, carrying triage detail *)
  (match roload 9 ro_keyed with
  | Error (Mmu.Roload_fault { key_requested = 9; page_key = 7; _ }) -> ()
  | _ -> Alcotest.fail "wrong key must raise a ROLoad fault");
  (* key 0 page with key-0 request: allowed (default rodata) *)
  (match roload 0 ro_plain with Ok _ -> () | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (* writable page: denied even with a matching key *)
  (match roload 7 rw with
  | Error (Mmu.Roload_fault { page_perms; _ }) ->
    Alcotest.(check bool) "writable" true page_perms.Perm.w
  | _ -> Alcotest.fail "writable pointee must fault");
  (* executable page: denied (the separate-code motivation) *)
  (match roload 7 rx with
  | Error (Mmu.Roload_fault _) -> ()
  | _ -> Alcotest.fail "executable page must fault");
  (* an ordinary load of the same pages is fine *)
  match Mmu.translate mmu ~access:Perm.Load rw with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Mmu.fault_to_string f)

let test_mmu_roload_disabled () =
  let _mem, pt = make_env () in
  let rw = 0x40000 in
  Page_table.map_page pt ~va:rw ~ppn:3 ~perms:Perm.rw ~user:true ~key:0;
  let mmu = make_mmu ~roload:false pt in
  (* without the check logic, Roload degrades to Load *)
  match Mmu.translate mmu ~access:(Perm.Roload 5) rw with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Mmu.fault_to_string f)

let test_mmu_invalidate () =
  let _mem, pt = make_env () in
  let va = 0x50000 in
  Page_table.map_page pt ~va ~ppn:3 ~perms:Perm.rw ~user:true ~key:0;
  let mmu = make_mmu pt in
  (match Mmu.translate mmu ~access:Perm.Load va with Ok _ -> () | Error _ -> Alcotest.fail "t");
  (* change the mapping under the TLB's feet, then invalidate *)
  (match Page_table.set_perms pt ~va ~perms:Perm.ro with Ok () -> () | Error _ -> ());
  Mmu.invalidate mmu ~va;
  match Mmu.translate mmu ~access:Perm.Store va with
  | Error (Mmu.Page_fault _) -> ()
  | _ -> Alcotest.fail "store after downgrade must fault"

(* property: the PTE field encoding round-trips *)
let prop_pte_roundtrip =
  QCheck.Test.make ~count:500 ~name:"PTE fields round-trip"
    QCheck.(triple (int_bound 0xFFFFF) (int_bound 1023) bool)
    (fun (ppn, key, writable) ->
      let perms = if writable then Perm.rw else Perm.ro in
      let pte = Pte.make ~ppn ~perms ~user:true ~key in
      Pte.ppn pte = ppn && Pte.key pte = key && Pte.writable pte = writable
      && Pte.valid pte && Pte.user pte)

(* property: TLB-cached translation agrees with a direct walk *)
let prop_tlb_walk_agree =
  QCheck.Test.make ~count:100 ~name:"MMU translation = direct walk"
    QCheck.(small_list (pair (int_bound 255) (int_bound 3)))
    (fun pages ->
      let _mem, pt = make_env () in
      let mmu = make_mmu pt in
      let mapped = Hashtbl.create 16 in
      List.iter
        (fun (slot, k) ->
          let va = 0x100000 + (slot * page) in
          if not (Hashtbl.mem mapped va) then begin
            Page_table.map_page pt ~va ~ppn:(100 + slot) ~perms:Perm.rw ~user:true ~key:k;
            Hashtbl.add mapped va (100 + slot)
          end)
        pages;
      Hashtbl.fold
        (fun va ppn acc ->
          acc
          &&
          (* translate twice: miss path then hit path must agree *)
          match (Mmu.translate mmu ~access:Perm.Load va, Mmu.translate mmu ~access:Perm.Load va) with
          | Ok a, Ok b -> a.Mmu.pa = ppn * page && b.Mmu.pa = a.Mmu.pa
          | _ -> false)
        mapped true)

(* A small TLB op language shared by the handle properties: fills,
   lookups and invalidates over a small vpn space, so handles regularly
   go stale through both recycling and invalidation. *)
let tlb_apply t = function
  | `Fill (vpn, key) -> (
    (* model an MMU fill: insert only on a miss — [insert] itself does
       not dedupe, real callers never insert a cached vpn *)
    match Tlb.lookup t vpn with
    | Some _ -> ()
    | None ->
      ignore (Tlb.insert t ~vpn ~pte:(Pte.make ~ppn:(vpn + 100) ~perms:Perm.ro ~user:true ~key)))
  | `Lookup vpn -> ignore (Tlb.lookup t vpn)
  | `Invalidate vpn -> Tlb.invalidate t ~vpn

let tlb_op =
  QCheck.Gen.(
    int_bound 11 >>= fun vpn ->
    frequency
      [ (4, map (fun k -> `Fill (vpn, k)) (int_bound 3));
        (3, return (`Lookup vpn));
        (1, return (`Invalidate vpn)) ])

let print_tlb_op = function
  | `Fill (v, k) -> Printf.sprintf "fill %d/k%d" v k
  | `Lookup v -> Printf.sprintf "lkp %d" v
  | `Invalidate v -> Printf.sprintf "inv %d" v

(* property: [Tlb.rehit]'s documented contract — replaying a hit through a
   captured handle, with [lookup] as the fallback on refusal, is
   observably identical to always calling [lookup]: same PTE, same
   hit/miss counters, and the same LRU state afterwards (probed by
   running an identical eviction-heavy tail on a twin TLB). *)
let prop_tlb_rehit_exact_accounting =
  let apply = tlb_apply and op = tlb_op and print_op = print_tlb_op in
  let arb =
    QCheck.make
      ~print:(fun (a, vpn, b) ->
        Printf.sprintf "[%s] vpn=%d [%s]"
          (String.concat "; " (List.map print_op a))
          vpn
          (String.concat "; " (List.map print_op b)))
      QCheck.Gen.(triple (list_size (int_bound 20) op) (int_bound 11) (list_size (int_bound 20) op))
  in
  QCheck.Test.make ~count:300 ~name:"Tlb.rehit = lookup (accounting, LRU, fallback)" arb
    (fun (before, vpn, between) ->
      let a = Tlb.create ~name:"a" ~entries:4 in
      let b = Tlb.create ~name:"b" ~entries:4 in
      List.iter (fun o -> apply a o; apply b o) before;
      let handle = Tlb.peek a ~vpn in
      List.iter (fun o -> apply a o; apply b o) between;
      let via_rehit =
        if Tlb.rehit a ~vpn handle then Some (Tlb.pte handle) else Tlb.lookup a vpn
      in
      let via_lookup = Tlb.lookup b vpn in
      let stats_eq () =
        let sa = Tlb.stats a and sb = Tlb.stats b in
        sa.Tlb.hits = sb.Tlb.hits && sa.Tlb.misses = sb.Tlb.misses
      in
      via_rehit = via_lookup
      && stats_eq ()
      && Tlb.occupancy a = Tlb.occupancy b
      (* same LRU state: an eviction-heavy tail behaves identically *)
      && List.for_all
           (fun probe ->
             ignore
               (Tlb.insert a ~vpn:(probe + 50)
                  ~pte:(Pte.make ~ppn:probe ~perms:Perm.ro ~user:true ~key:0));
             ignore
               (Tlb.insert b ~vpn:(probe + 50)
                  ~pte:(Pte.make ~ppn:probe ~perms:Perm.ro ~user:true ~key:0));
             List.for_all (fun v -> Tlb.lookup a v = Tlb.lookup b v) [ vpn; probe + 50 ]
             && stats_eq ())
           [ 0; 1; 2; 3; 4; 5 ])

(* property: [Tlb.rehit_many h ~n] is [n] sequential [rehit]s — same
   verdict, statistics, entry recency and LRU clock (all compared through
   the snapshot image, which captures them), and the same observer
   firings.  The handle is captured mid-history and the history goes on
   before the replay, so it is sometimes stale; both sides must then
   refuse without accounting. *)
let prop_tlb_rehit_many =
  let arb =
    QCheck.make
      ~print:(fun (a, vpn, b, n) ->
        Printf.sprintf "[%s] vpn=%d [%s] n=%d"
          (String.concat "; " (List.map print_tlb_op a))
          vpn
          (String.concat "; " (List.map print_tlb_op b))
          n)
      QCheck.Gen.(
        quad (list_size (int_bound 20) tlb_op) (int_bound 11)
          (list_size (int_bound 8) tlb_op) (int_range (-1) 6))
  in
  QCheck.Test.make ~count:300 ~name:"Tlb.rehit_many = n x rehit (state, clock, observer)" arb
    (fun (before, vpn, between, n) ->
      let a = Tlb.create ~name:"a" ~entries:4 in
      let b = Tlb.create ~name:"b" ~entries:4 in
      let log_a = ref [] and log_b = ref [] in
      let tap log = Some (fun ~vpn ~hit -> log := (vpn, hit) :: !log) in
      Tlb.set_observer a (tap log_a);
      Tlb.set_observer b (tap log_b);
      List.iter (fun o -> tlb_apply a o; tlb_apply b o) before;
      let ha = Tlb.peek a ~vpn and hb = Tlb.peek b ~vpn in
      List.iter (fun o -> tlb_apply a o; tlb_apply b o) between;
      let batched = Tlb.rehit_many a ~vpn ha ~n in
      let one_by_one = ref true in
      for _ = 1 to n do
        if not (Tlb.rehit b ~vpn hb) then one_by_one := false
      done;
      batched = !one_by_one
      && Tlb.snapshot a = Tlb.snapshot b
      && !log_a = !log_b)

(* property: the MMU's one translation core agrees with its [translate]
   wrapper and with a fresh MMU that has no same-page memos (restored
   from the core's image right before each access).  Random access
   sequences — fetch, load, store and ld.ro with every key — run over
   pages of every permission class, some unmapped, through 4-entry TLBs
   and vpns that collide in the memo, interleaved with TLB key-bit
   corruption, invalidate, flush and snapshot/restore.  After every step
   the PA or fault, the walk steps, and the whole MMU image (TLB entries,
   LRU clocks, hit/miss counters, fault triage counts) must match. *)
let prop_mmu_core_agrees =
  let base = 0x100000 in
  let classes =
    [| (Perm.ro, 1); (Perm.ro, 2); (Perm.rw, 0); (Perm.rx, 0); (Perm.ro, 0);
       (Perm.rw, 3); (Perm.ro, 3); (Perm.rwx, 1) |]
  in
  let n_vpns = 10 (* the last two are unmapped *) in
  let access_of k =
    match k with
    | 0 -> Perm.Fetch
    | 1 -> Perm.Load
    | 2 -> Perm.Store
    | k -> Perm.Roload (k - 3)
  in
  let op =
    QCheck.Gen.(
      frequency
        [ (12, map3 (fun k v off -> `Access (k, v, off)) (int_bound 6) (int_bound (n_vpns - 1))
                 (int_bound 511));
          (2, map3 (fun side v bit -> `Corrupt (side, v, bit)) bool (int_bound (n_vpns - 1))
                (int_bound 1));
          (1, map (fun v -> `Invalidate v) (int_bound (n_vpns - 1)));
          (1, return `Flush);
          (1, return `Snapshot);
          (1, return `Restore) ])
  in
  let print_op = function
    | `Access (k, v, off) -> Printf.sprintf "acc%d %d+%d" k v off
    | `Corrupt (side, v, bit) -> Printf.sprintf "flip%s %d.%d" (if side then "I" else "D") v bit
    | `Invalidate v -> Printf.sprintf "inv %d" v
    | `Flush -> "flush"
    | `Snapshot -> "snap"
    | `Restore -> "restore"
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      QCheck.Gen.(list_size (int_range 1 60) op)
  in
  QCheck.Test.make ~count:300 ~name:"Mmu core = translate wrapper = memo-free MMU" arb
    (fun ops ->
      let _mem, pt = make_env () in
      Array.iteri
        (fun i (perms, key) ->
          Page_table.map_page pt ~va:(base + (i * page)) ~ppn:(200 + i) ~perms ~user:true ~key)
        classes;
      let core = make_mmu pt and wrapped = make_mmu pt in
      let saved = ref None in
      let step = function
        | `Access (k, v, off) ->
          let access = access_of k and va = base + (v * page) + (off * 8) in
          let before = Mmu.snapshot core in
          let pa = Mmu.translate_pa core ~access va in
          let core_result =
            if pa < 0 then Error (Mmu.last_fault core) else Ok (pa, Mmu.walk_steps core)
          in
          let wrapped_result =
            match Mmu.translate wrapped ~access va with
            | Ok { Mmu.pa; walk_steps; _ } -> Ok (pa, walk_steps)
            | Error f -> Error f
          in
          let fresh = make_mmu pt in
          Mmu.restore fresh before;
          let fpa = Mmu.translate_pa fresh ~access va in
          let fresh_result =
            if fpa < 0 then Error (Mmu.last_fault fresh) else Ok (fpa, Mmu.walk_steps fresh)
          in
          core_result = wrapped_result && core_result = fresh_result
          && Mmu.snapshot fresh = Mmu.snapshot core
        | `Corrupt (side, v, bit) ->
          let tlb m = if side then Mmu.itlb m else Mmu.dtlb m in
          let vpn = (base lsr Page_table.page_shift) + v in
          let f pte = Pte.flip_key_bit pte ~bit in
          Tlb.corrupt (tlb core) ~vpn ~f = Tlb.corrupt (tlb wrapped) ~vpn ~f
        | `Invalidate v ->
          Mmu.invalidate core ~va:(base + (v * page));
          Mmu.invalidate wrapped ~va:(base + (v * page));
          true
        | `Flush ->
          Mmu.flush core;
          Mmu.flush wrapped;
          true
        | `Snapshot ->
          saved := Some (Mmu.snapshot core, Mmu.snapshot wrapped);
          true
        | `Restore ->
          (match !saved with
          | Some (c, w) ->
            Mmu.restore core c;
            Mmu.restore wrapped w
          | None -> ());
          true
      in
      List.for_all (fun o -> step o && Mmu.snapshot core = Mmu.snapshot wrapped) ops)

let suite =
  [
    Alcotest.test_case "physical memory" `Quick test_phys_mem;
    Alcotest.test_case "pte fields" `Quick test_pte_fields;
    Alcotest.test_case "pte key position (top 10 bits)" `Quick test_pte_key_position;
    Alcotest.test_case "sv39 walk/map/unmap" `Quick test_walk_and_map;
    Alcotest.test_case "set key and perms" `Quick test_set_key_and_perms;
    Alcotest.test_case "tlb lru" `Quick test_tlb_lru;
    Alcotest.test_case "mmu basic + tlb fill" `Quick test_mmu_basic;
    Alcotest.test_case "mmu roload conditions" `Quick test_mmu_roload_conditions;
    Alcotest.test_case "mmu roload disabled" `Quick test_mmu_roload_disabled;
    Alcotest.test_case "mmu invalidate" `Quick test_mmu_invalidate;
    Seeded.to_alcotest prop_pte_roundtrip;
    Seeded.to_alcotest prop_tlb_walk_agree;
    Seeded.to_alcotest prop_tlb_rehit_exact_accounting;
    Seeded.to_alcotest prop_tlb_rehit_many;
    Seeded.to_alcotest prop_mmu_core_agrees;
    Seeded.to_alcotest prop_phys_mem_model;
  ]
