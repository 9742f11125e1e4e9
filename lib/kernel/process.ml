(* A user-mode process: its address space, memory accounting, status, and
   console output.  The machine executes one process at a time; the kernel
   installs the process's MMU before running it. *)

module Perm = Roload_mem.Perm
module Page_table = Roload_mem.Page_table
module Mmu = Roload_mem.Mmu
module Exe = Roload_obj.Exe

type status =
  | Running
  | Exited of int
  | Killed of Signal.t

type t = {
  exe : Exe.t;
  page_table : Page_table.t;
  mmu : Mmu.t;
  phys : Roload_mem.Phys_mem.t;
  mutable brk : int;
  mutable brk_start : int;
  mutable mmap_next : int;
  mutable mapped_pages : int;
  mutable peak_pages : int;
  mutable status : status;
  output : Buffer.t;
}

let page = Page_table.page_size

let stack_top = 0x3FF0000
let stack_pages = 64 (* 256 KiB *)
let mmap_base = 0x2000000

(* The mmap region is bounded by a guard band below the stack: without
   it, repeated mmap calls walk the cursor into the live stack pages
   below [stack_top] and silently remap them. *)
let stack_guard_pages = 16
let mmap_limit = stack_top - ((stack_pages + stack_guard_pages) * page)

let create ~exe ~page_table ~mmu ~phys ~brk =
  {
    exe;
    page_table;
    mmu;
    phys;
    brk;
    brk_start = brk;
    mmap_next = mmap_base;
    mapped_pages = 0;
    peak_pages = 0;
    status = Running;
    output = Buffer.create 256;
  }

(* ---- snapshots ----

   Everything mutable (or observable, like the console buffer) is
   captured by value; the address-space objects themselves are snapshot
   at the memory layer, so a process image composes with a physical
   memory image taken at the same instant. *)

type image = {
  i_brk : int;
  i_brk_start : int;
  i_mmap_next : int;
  i_mapped_pages : int;
  i_peak_pages : int;
  i_status : status;
  i_output : string;
}

let snapshot t =
  {
    i_brk = t.brk;
    i_brk_start = t.brk_start;
    i_mmap_next = t.mmap_next;
    i_mapped_pages = t.mapped_pages;
    i_peak_pages = t.peak_pages;
    i_status = t.status;
    i_output = Buffer.contents t.output;
  }

(* A fresh process in the captured state, wired to an already-forked
   address space (the caller forks phys/page-table/MMU first). *)
let fork img ~exe ~page_table ~mmu ~phys =
  let t = create ~exe ~page_table ~mmu ~phys ~brk:img.i_brk in
  t.brk_start <- img.i_brk_start;
  t.mmap_next <- img.i_mmap_next;
  t.mapped_pages <- img.i_mapped_pages;
  t.peak_pages <- img.i_peak_pages;
  t.status <- img.i_status;
  Buffer.add_string t.output img.i_output;
  t

let status t = t.status
let output t = Buffer.contents t.output
let append_output t s = Buffer.add_string t.output s

(* In-kernel fork duplicates the parent image, console contents included;
   the child starts with an empty console instead. *)
let clear_output t = Buffer.clear t.output
let exe t = t.exe
let mmu t = t.mmu
let page_table t = t.page_table

let set_status t s = if t.status = Running then t.status <- s

let account_mapped t n =
  t.mapped_pages <- t.mapped_pages + n;
  if t.mapped_pages > t.peak_pages then t.peak_pages <- t.mapped_pages

let peak_pages t = t.peak_pages
let peak_kib t = t.peak_pages * page / 1024

let brk t = t.brk
let set_brk t b = t.brk <- b

let init_brk t b =
  t.brk <- b;
  t.brk_start <- b

let heap_bytes t = t.brk - t.brk_start

(* Reserve address space for [npages]; [None] when the region would
   cross the stack guard (the caller returns ENOMEM).  The cursor only
   moves on success, so a refused or unwound mmap leaves the next
   allocation exactly where it would have been. *)
let alloc_mmap_region t npages =
  let addr = t.mmap_next in
  if npages <= 0 || addr + (npages * page) > mmap_limit then None
  else begin
    t.mmap_next <- addr + (npages * page);
    Some addr
  end

(* Roll the cursor back after a partial-failure unwind.  Only the most
   recent reservation can be retracted (the cursor is a bump
   allocator); anything else is a kernel bug. *)
let retract_mmap_region t ~addr ~npages =
  assert (t.mmap_next = addr + (npages * page));
  t.mmap_next <- addr

let mapped_pages t = t.mapped_pages

(* Page-accounting snapshot/rollback for all-or-nothing syscalls: a
   partially mapped region that gets unwound must leave both the live
   count and the peak exactly as they were. *)
let accounting t = (t.mapped_pages, t.peak_pages)

let rollback_accounting t ~mapped ~peak =
  t.mapped_pages <- mapped;
  t.peak_pages <- peak

(* ---- user-memory access from kernel / attacker tooling ---- *)

(* Translate through the page table (ignores TLB state; kernel-mode
   access). *)
let translate t va = Page_table.translate_exn t.page_table va

let read_bytes t ~va ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Roload_mem.Phys_mem.read_u8 t.phys (translate t (va + i))))
  done;
  Bytes.to_string b

let read_u64 t ~va = Roload_mem.Phys_mem.read_u64 t.phys (translate t va)

(* Kernel-privileged write (the loader uses this). *)
let kernel_write_bytes t ~va s =
  String.iteri
    (fun i c -> Roload_mem.Phys_mem.write_u8 t.phys (translate t (va + i)) (Char.code c))
    s

(* The attacker's primitive under the paper's threat model: arbitrary
   writes, but only to pages that are actually writable. *)
exception Attack_blocked of string

let page_writable t va =
  match Page_table.walk t.page_table va with
  | Error (Page_table.Not_mapped | Page_table.Bad_alignment) -> false
  | Ok { pte; _ } -> Roload_mem.Pte.writable pte

let attacker_write t ~va s =
  String.iteri
    (fun i c ->
      let a = va + i in
      if not (page_writable t a) then
        raise (Attack_blocked (Printf.sprintf "page at 0x%x is not writable" a));
      Roload_mem.Phys_mem.write_u8 t.phys (translate t a) (Char.code c))
    s

let attacker_write_u64 t ~va v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  attacker_write t ~va (Bytes.to_string b)
