(* The attack runner: pause the victim at [attack_point], corrupt memory
   through the attacker's writable-memory primitive, resume, and classify
   the outcome.

   This module is scheme-agnostic: it works on a linked executable and
   its symbol table, and detects whether the ICall transformation was
   applied by looking for GFPT symbols (function-pointer values then hold
   GFPT-slot addresses, and the attacker adapts accordingly — the
   strongest available strategy per scheme). *)

module Machine = Roload_machine.Machine
module Cpu = Roload_machine.Cpu
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Exe = Roload_obj.Exe

type run_config = {
  machine_config : Roload_machine.Config.t;
  kernel_config : Kernel.config;
}

let default_run_config =
  { machine_config = Roload_machine.Config.default;
    kernel_config = Kernel.default_config }

let gfpt_symbol_for exe func =
  List.find_map
    (fun (name, _) ->
      if String.starts_with ~prefix:"__gfpt$" name && String.ends_with ~suffix:("$" ^ func) name
      then Some name
      else None)
    exe.Exe.symbols

(* The address an attacker writes into a function-pointer slot to make
   it "point at" [func]: the raw code address normally, or the GFPT slot
   address when the ICall transformation is active (pointers then hold
   GFPT addresses, and using anything else is even easier to catch). *)
let fptr_value_for exe func =
  match gfpt_symbol_for exe func with
  | Some sym -> Exe.find_symbol_exn exe sym
  | None -> Exe.find_symbol_exn exe func

let corrupt exe process (kind : Attack.kind) =
  let addr name = Exe.find_symbol_exn exe name in
  let obj_addr () = Int64.to_int (Process.read_u64 process ~va:(addr "g")) in
  match kind with
  | Attack.Vtable_injection ->
    (* forge a fake vtable in writable memory, then swing the vptr *)
    let fake = addr "fake_vtable" in
    let gadget = Int64.of_int (addr "gadget") in
    for slot = 0 to 3 do
      Process.attacker_write_u64 process ~va:(fake + (8 * slot)) gadget
    done;
    Process.attacker_write_u64 process ~va:(obj_addr ()) (Int64.of_int fake)
  | Attack.Vtable_corruption_reuse ->
    (* swing the vptr at another hierarchy's legitimate vtable *)
    Process.attacker_write_u64 process ~va:(obj_addr ())
      (Int64.of_int (addr "__vt$Logger"))
  | Attack.Fptr_overwrite ->
    Process.attacker_write_u64 process ~va:(addr "callback")
      (Int64.of_int (addr "gadget"))
  | Attack.Fptr_type_confusion ->
    Process.attacker_write_u64 process ~va:(addr "callback")
      (Int64.of_int (fptr_value_for exe "logger"))
  | Attack.Pointee_reuse_same_key ->
    Process.attacker_write_u64 process ~va:(addr "callback")
      (Int64.of_int (fptr_value_for exe "evil_twin"))

let classify (outcome : Kernel.run_outcome) =
  let contains_marker m =
    let out = outcome.Kernel.output and n = String.length m in
    let rec go i =
      i + n <= String.length out && (String.sub out i n = m || go (i + 1))
    in
    go 0
  in
  match outcome.Kernel.status with
  | Process.Exited code
    when code = Victim.exit_gadget || code = Victim.exit_logger
         || code = Victim.exit_twin || code = Victim.exit_typeconf
         || contains_marker Victim.marker_gadget
         || contains_marker Victim.marker_logger
         || contains_marker Victim.marker_twin
         || contains_marker Victim.marker_typeconf ->
    Attack.Hijacked
  | Process.Exited _ -> Attack.No_effect
  | Process.Killed sg -> (
    (* one shared decoder for fault classes (also used by roload-fuzz) *)
    match Trapclass.classify_signal sg with
    | Trapclass.Roload_fault -> Attack.Blocked_roload
    | k -> Attack.Blocked_other (Trapclass.kind_name k))
  | Process.Running -> Attack.Blocked_other "instruction limit"

let limit = { Kernel.max_instructions = 10_000_000L }

(* Boot the victim and advance it one retire at a time, through the
   kernel's instruction limit (the pause every campaign ladder uses),
   until it is about to execute [attack_point]. *)
let boot_paused ?(config = default_run_config) exe =
  let machine = Machine.create config.machine_config in
  let kernel = Kernel.create ~machine ~config:config.kernel_config in
  let process = Kernel.load kernel exe in
  Kernel.schedule kernel process;
  let attack_point = Exe.find_symbol_exn exe "attack_point" in
  let cpu = Machine.cpu machine in
  let rec advance () =
    let next = Int64.of_int (Cpu.instret cpu + 1) in
    if next > limit.max_instructions then
      failwith "attack runner: victim never reached the attack point";
    match (Kernel.run ~limit:{ Kernel.max_instructions = next } kernel process).status with
    | Process.Running -> if Cpu.pc cpu <> attack_point then advance ()
    | Process.Exited _ | Process.Killed _ ->
      failwith "attack runner: victim ended before the attack point"
  in
  advance ();
  (machine, kernel, process)

(* One attack on a paused victim: corrupt, resume, classify. *)
let attack exe kernel process kind =
  (try corrupt exe process kind
   with Process.Attack_blocked reason ->
     failwith ("attack runner: primitive unexpectedly blocked: " ^ reason));
  classify (Kernel.run ~limit kernel process)

let run ?config ~exe kind =
  let _, kernel, process = boot_paused ?config exe in
  attack exe kernel process kind

(* Snapshot-seeded corpus: boot the victim once, pause at the attack
   point, capture a copy-on-write snapshot, and fork one variant per
   attack kind instead of re-booting from reset for each.  The boot
   prefix is deterministic, so verdicts are identical either way;
   [~from_reset:true] keeps the boot-per-attack path alive for the
   equivalence regression. *)
let run_corpus ?config ?(from_reset = false) ~exe () =
  if from_reset then List.map (fun kind -> (kind, run ?config ~exe kind)) Attack.all_kinds
  else begin
    let machine, kernel, process = boot_paused ?config exe in
    let snap = Roload_kernel.Snapshot.capture ~machine ~kernel ~process in
    List.map
      (fun kind ->
        let _, kernel, process = Roload_kernel.Snapshot.fork snap in
        (kind, attack exe kernel process kind))
      Attack.all_kinds
  end
