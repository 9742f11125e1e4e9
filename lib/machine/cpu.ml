(* Architectural CPU state: 32 integer registers, the program counter, and
   retirement/cycle counters.

   The register file is one 256-byte [Bytes]: register i lives
   little-endian at byte [8 * i].  Unlike an [int64 array], reading and
   writing it through the stdlib [Bytes] int64 primitives never boxes, so
   the trace compiler's closures move register values without touching
   the heap.  The counters are plain [int]s for the same reason. *)

type t = {
  regs : Bytes.t;
  mutable pc : int;
  mutable instret : int;
  mutable cycles : int;
}

let regs_bytes = 32 * 8

let create () = { regs = Bytes.make regs_bytes '\000'; pc = 0; instret = 0; cycles = 0 }

let get t r =
  let i = Roload_isa.Reg.to_int r in
  if i = 0 then 0L else Bytes.get_int64_le t.regs (8 * i)

let set_saved regs r v =
  let i = Roload_isa.Reg.to_int r in
  if i <> 0 then Bytes.set_int64_le regs (8 * i) v

let set t r v = set_saved t.regs r v
let regs t = t.regs
let save_regs t dst = Bytes.blit t.regs 0 dst 0 regs_bytes
let load_regs t src = Bytes.blit src 0 t.regs 0 regs_bytes

let pc t = t.pc
let set_pc t pc = t.pc <- pc
let instret t = t.instret
let cycles t = t.cycles
let add_cycles t n = t.cycles <- t.cycles + n
let retire t = t.instret <- t.instret + 1
let retire_n t n = t.instret <- t.instret + n

(* Snapshot: registers + pc + counters.  Restore blits into the existing
   register file — its identity is captured by compiled trace closures,
   so it must never be replaced. *)
type image = { i_regs : Bytes.t; i_pc : int; i_instret : int; i_cycles : int }

let snapshot t =
  { i_regs = Bytes.copy t.regs; i_pc = t.pc; i_instret = t.instret; i_cycles = t.cycles }

let restore t img =
  load_regs t img.i_regs;
  t.pc <- img.i_pc;
  t.instret <- img.i_instret;
  t.cycles <- img.i_cycles

let reset t =
  Bytes.fill t.regs 0 regs_bytes '\000';
  t.pc <- 0;
  t.instret <- 0;
  t.cycles <- 0

let dump t =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "pc=0x%x instret=%d cycles=%d\n" t.pc t.instret t.cycles);
  for i = 0 to 31 do
    Buffer.add_string b
      (Printf.sprintf "%-5s=%016Lx%s"
         (Roload_isa.Reg.name (Roload_isa.Reg.of_int i))
         (Bytes.get_int64_le t.regs (8 * i))
         (if i mod 4 = 3 then "\n" else "  "))
  done;
  Buffer.contents b
