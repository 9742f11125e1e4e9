(* Pre-decoded basic blocks.

   The execution engine caches straight-line runs of decoded instructions
   keyed by the physical address of the first halfword; a block ends at the
   first control-flow instruction (jumps, branches, ecall/ebreak — anything
   after which the next pc is not [pc + size]) or when the next instruction
   would start on another page (blocks never span pages, so one translation
   covers every slot).  Blocks are grown lazily, one slot per first
   execution, so decode-time cycle charges land in exactly the order the
   per-instruction engine would have charged them.

   The same representation doubles as the static disassembly walk of the
   analysis layer ([predecode]). *)

module Inst = Roload_isa.Inst

type slot = {
  s_inst : Inst.t;
  s_size : int; (* 2 or 4 bytes *)
  s_pa : int; (* physical address of the first halfword *)
}

type t = {
  start_pa : int;
  mutable slots : slot array;
  mutable len : int;
  mutable closed : bool; (* no further slots: terminator or page end *)
  (* Trace-engine bookkeeping, recorded by the traced dispatch loop and
     consumed by the superblock stitcher.  Pure heuristics: they steer
     which traces get compiled, never what executing one computes. *)
  mutable hot : int; (* dispatch-loop entries into this block *)
  mutable succ_va : int; (* VA the last completed run continued at (-1: none) *)
  mutable succ_stable : int; (* consecutive runs continuing at [succ_va] *)
  mutable no_trace : bool; (* stitching from here failed; don't retry *)
}

let dummy_slot = { s_inst = Inst.nop; s_size = 2; s_pa = -1 }

let create ~start_pa =
  {
    start_pa;
    slots = Array.make 8 dummy_slot;
    len = 0;
    closed = false;
    hot = 0;
    succ_va = -1;
    succ_stable = 0;
    no_trace = false;
  }

let start_pa t = t.start_pa
let length t = t.len
let closed t = t.closed
let close t = t.closed <- true
let slot t i = Array.unsafe_get t.slots i

let hot t = t.hot
let note_enter t = t.hot <- t.hot + 1

let note_successor t va =
  if t.succ_va = va then t.succ_stable <- t.succ_stable + 1
  else begin
    t.succ_va <- va;
    t.succ_stable <- 1
  end

let successor t = if t.succ_va < 0 then None else Some (t.succ_va, t.succ_stable)
let no_trace t = t.no_trace
let set_no_trace t = t.no_trace <- true

let append t s =
  if t.len = Array.length t.slots then begin
    let ns = Array.make (2 * t.len) dummy_slot in
    Array.blit t.slots 0 ns 0 t.len;
    t.slots <- ns
  end;
  t.slots.(t.len) <- s;
  t.len <- t.len + 1

(* Deep copy for machine snapshots: slots are immutable records, so a
   fresh slot array suffices, and a closed block (which never appends
   again) shares its array; the trace-engine bookkeeping rides along so
   a forked machine re-reaches hotness on exactly the same entry. *)
let copy t =
  {
    start_pa = t.start_pa;
    slots = (if t.closed then t.slots else Array.copy t.slots);
    len = t.len;
    closed = t.closed;
    hot = t.hot;
    succ_va = t.succ_va;
    succ_stable = t.succ_stable;
    no_trace = t.no_trace;
  }

(* Instructions after which execution does not fall through to [pc + size]:
   these close the block.  Ecall/Ebreak are included because the kernel
   decides the resumption pc. *)
let is_terminator (i : Inst.t) =
  Inst.is_control_flow i || (match i with Inst.Ecall | Inst.Ebreak -> true | _ -> false)

(* Static linear sweep of a raw code string into closed blocks — the same
   representation the engine caches at run time, reused by the analysis
   layer.  Undecodable parcels (alignment padding between functions) close
   the current block and are skipped a halfword at a time, mirroring the
   previous per-instruction disassembly walk. *)
let predecode ?(base = 0) code =
  let n = String.length code in
  let acc = ref [] in
  let finish b =
    b.closed <- true;
    acc := b :: !acc
  in
  let rec go off cur =
    if off >= n then (match cur with Some b -> finish b | None -> ())
    else
      match Roload_isa.Disasm.decode_at code off with
      | Error _ ->
        (match cur with Some b -> finish b | None -> ());
        go (off + 2) None
      | Ok (inst, size) ->
        let b = match cur with Some b -> b | None -> create ~start_pa:(base + off) in
        append b { s_inst = inst; s_size = size; s_pa = base + off };
        if is_terminator inst then begin
          finish b;
          go (off + size) None
        end
        else go (off + size) (Some b)
  in
  go 0 None;
  List.rev !acc

let iter_insts blocks ~f =
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let s = b.slots.(i) in
        f ~pa:s.s_pa s.s_inst ~size:s.s_size
      done)
    blocks
