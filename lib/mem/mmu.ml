(* The MMU front-end: TLB lookup, page-table walk on miss, and the access
   check.  The ROLoad extension adds one extra condition, evaluated in
   parallel with the conventional permission check and ANDed with it
   (paper §II-E1): for a [Perm.Roload key] access the page must be
   read-only (R, ¬W, ¬X) and its PTE key must equal the instruction key. *)

type fault =
  | Page_fault of { va : int; access : Perm.access }
      (* conventional fault: unmapped page or permission violation *)
  | Roload_fault of { va : int; key_requested : int; page_key : int; page_perms : Perm.t }
      (* the new fault class: the page is mapped and loadable, but fails
         the ROLoad read-only/key condition *)

let fault_to_string = function
  | Page_fault { va; access } ->
    Printf.sprintf "page fault at 0x%x (%s)" va (Perm.access_to_string access)
  | Roload_fault { va; key_requested; page_key; page_perms } ->
    Printf.sprintf "ROLoad fault at 0x%x (key %d requested, page key %d, perms %s)"
      va key_requested page_key (Perm.to_string page_perms)

type translation = {
  pa : int;
  tlb_hit : bool;
  walk_steps : int; (* PTE fetches performed on a TLB miss *)
}

(* Cumulative fault counts, by triage class.  ROLoad faults split on
   which half of the R∧¬W∧¬X ∧ key=key condition failed — the metrics
   snapshot reports the two separately. *)
type fault_counts = {
  mutable page_faults : int;
  mutable roload_key_mismatch : int; (* read-only page, wrong key *)
  mutable roload_not_readonly : int; (* pointee page writable/executable *)
}

(* Same-page memos: per side, a small direct-mapped table of the TLB
   entries that served recent translations, indexed by the low vpn bits.
   A repeated access to a memoized page replays the TLB hit through
   [Tlb.rehit] — whose accounting (clock, recency, hit counter) is exactly
   what the full lookup would have done — and skips the associative scan.
   More than one slot keeps alternating pages (stack and heap; a caller's
   and a callee's code page) from evicting each other.  The memos never
   change what is simulated, only how fast: a slot is only trusted after
   [rehit]'s guard confirms the entry still caches the page, so they
   survive invalidate, flush and restore untouched. *)
let memo_slots = 8

type t = {
  page_table : Page_table.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  fault_counts : fault_counts;
  roload_check_enabled : bool;
      (* false on the baseline processor, which has no key-check logic.
         The baseline also refuses to *decode* ld.ro; this flag exists so
         the MMU model is meaningful on its own. *)
  i_memo : Tlb.handle array;
  d_memo : Tlb.handle array;
  mutable walk_steps : int;
      (* PTE fetches of the last translation: 0 on a TLB hit *)
  mutable fault : fault; (* the last fault, read after [translate_pa] = -1 *)
}

let create ~page_table ~itlb_entries ~dtlb_entries ~roload_check_enabled =
  {
    page_table;
    itlb = Tlb.create ~name:"I-TLB" ~entries:itlb_entries;
    dtlb = Tlb.create ~name:"D-TLB" ~entries:dtlb_entries;
    fault_counts = { page_faults = 0; roload_key_mismatch = 0; roload_not_readonly = 0 };
    roload_check_enabled;
    i_memo = Array.make memo_slots Tlb.no_handle;
    d_memo = Array.make memo_slots Tlb.no_handle;
    walk_steps = 0;
    fault = Page_fault { va = 0; access = Perm.Fetch };
  }

let itlb t = t.itlb
let dtlb t = t.dtlb
let page_table t = t.page_table
let fault_counts t = t.fault_counts
let walk_steps t = t.walk_steps
let last_fault t = t.fault

(* Record a fault: count it by triage class (every path out of the core
   that fails goes through here exactly once) and leave it for the
   caller.  Only fault paths allocate. *)
let fail t f =
  (match f with
  | Page_fault _ -> t.fault_counts.page_faults <- t.fault_counts.page_faults + 1
  | Roload_fault { page_perms; _ } ->
    if Perm.read_only page_perms then
      t.fault_counts.roload_key_mismatch <- t.fault_counts.roload_key_mismatch + 1
    else t.fault_counts.roload_not_readonly <- t.fault_counts.roload_not_readonly + 1);
  t.fault <- f;
  -1

let page_mask = Page_table.page_size - 1
let u_mask = 1 lsl Pte.u_bit
let r_mask = 1 lsl Pte.r_bit
let w_mask = 1 lsl Pte.w_bit
let x_mask = 1 lsl Pte.x_bit
let rwx_mask = r_mask lor w_mask lor x_mask
let ppn_mask = (1 lsl Pte.ppn_width) - 1

(* The access check, read straight off the PTE bits (the low 63 bits as
   an [int] hold the flags and the PPN; the key needs bit 63 too).
   Conventional check: user bit (all simulated execution is user-mode)
   and R/W/X permission.  Then the extra ROLoad condition for a [Roload
   key] access: the page must be read-only (R, ¬W, ¬X) and carry
   [key]. *)
let[@inline] check t ~va ~access (pte : Pte.t) =
  let bits = Int64.to_int (pte :> int64) in
  let need =
    match access with
    | Perm.Fetch -> x_mask
    | Perm.Load | Perm.Roload _ -> r_mask
    | Perm.Store -> w_mask
  in
  if bits land u_mask = 0 || bits land need = 0 then fail t (Page_fault { va; access })
  else
    match access with
    | Perm.Roload key
      when t.roload_check_enabled
           && not
                (bits land rwx_mask = r_mask
                && Int64.to_int (Int64.shift_right_logical (pte :> int64) Pte.key_lo) = key) ->
      fail t
        (Roload_fault
           { va; key_requested = key; page_key = Pte.key pte; page_perms = Pte.perms pte })
    | Perm.Fetch | Perm.Load | Perm.Store | Perm.Roload _ ->
      (((bits lsr Pte.ppn_lo) land ppn_mask) lsl Page_table.page_shift) lor (va land page_mask)

(* The one translation path: same-page memo, then the full TLB lookup,
   then the walk on a miss.  Returns the physical address, or -1 with the
   fault in [t.fault]; [t.walk_steps] holds the PTE fetches paid.  Never
   allocates unless it walks or faults. *)
let translate_pa t ~access va =
  if va < 0 then fail t (Page_fault { va; access })
  else begin
    let fetch = match access with Perm.Fetch -> true | Perm.Load | Perm.Store | Perm.Roload _ -> false in
    let tlb = if fetch then t.itlb else t.dtlb in
    let memo = if fetch then t.i_memo else t.d_memo in
    let vpn = va lsr Page_table.page_shift in
    let slot = vpn land (memo_slots - 1) in
    let h = Array.unsafe_get memo slot in
    if Tlb.rehit tlb ~vpn h then begin
      t.walk_steps <- 0;
      check t ~va ~access (Tlb.pte h)
    end
    else begin
      let h = Tlb.lookup_entry tlb vpn in
      if h != Tlb.no_handle then begin
        Array.unsafe_set memo slot h;
        t.walk_steps <- 0;
        check t ~va ~access (Tlb.pte h)
      end
      else
        match Page_table.walk t.page_table va with
        | Error (Page_table.Not_mapped | Page_table.Bad_alignment) ->
          fail t (Page_fault { va; access })
        | Ok { pte; steps; _ } ->
          Array.unsafe_set memo slot (Tlb.insert tlb ~vpn ~pte);
          t.walk_steps <- steps;
          check t ~va ~access pte
    end
  end

let translate t ~access va =
  let pa = translate_pa t ~access va in
  if pa < 0 then Error t.fault
  else Ok { pa; tlb_hit = t.walk_steps = 0; walk_steps = t.walk_steps }

let fetch_handle t va =
  Array.unsafe_get t.i_memo ((va lsr Page_table.page_shift) land (memo_slots - 1))

(* Invalidate cached translations for [va] in both TLBs (sfence.vma
   analogue, used after mprotect/mprotect_key). *)
let invalidate t ~va =
  let vpn = va lsr Page_table.page_shift in
  Tlb.invalidate t.itlb ~vpn;
  Tlb.invalidate t.dtlb ~vpn

let flush t =
  Tlb.flush t.itlb;
  Tlb.flush t.dtlb

(* ---- snapshots ----
   Both TLB images plus the fault triage counters.  The same-page memos
   are deliberately *not* captured: they are accounting-neutral by
   construction ([rehit] performs exactly the accounting [lookup] would),
   so their contents never show in any counter — only in wall-clock
   speed. *)

type image = {
  im_itlb : Tlb.image;
  im_dtlb : Tlb.image;
  im_page_faults : int;
  im_roload_key_mismatch : int;
  im_roload_not_readonly : int;
}

let snapshot t =
  {
    im_itlb = Tlb.snapshot t.itlb;
    im_dtlb = Tlb.snapshot t.dtlb;
    im_page_faults = t.fault_counts.page_faults;
    im_roload_key_mismatch = t.fault_counts.roload_key_mismatch;
    im_roload_not_readonly = t.fault_counts.roload_not_readonly;
  }

let restore t img =
  Tlb.restore t.itlb img.im_itlb;
  Tlb.restore t.dtlb img.im_dtlb;
  t.fault_counts.page_faults <- img.im_page_faults;
  t.fault_counts.roload_key_mismatch <- img.im_roload_key_mismatch;
  t.fault_counts.roload_not_readonly <- img.im_roload_not_readonly
