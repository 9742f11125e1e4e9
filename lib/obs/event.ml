(* The typed event vocabulary of the observability layer.

   Events are deliberately flat (ints, bools, short strings) so the layer
   sits below every simulator library: the machine, MMU, caches and kernel
   construct these without this library knowing about instructions, PTEs
   or signals.  Each event is stamped with the cycle counter by the tracer
   at emit time; the event itself carries only the payload. *)

type inst_class =
  | C_alu (* integer ALU, lui/auipc, fences *)
  | C_load
  | C_store
  | C_roload (* the ld.ro family *)
  | C_branch
  | C_jump (* jal, and jalr returns *)
  | C_indirect (* non-return jalr *)
  | C_muldiv
  | C_system (* ecall/ebreak *)

let inst_class_name = function
  | C_alu -> "alu"
  | C_load -> "load"
  | C_store -> "store"
  | C_roload -> "ld.ro"
  | C_branch -> "branch"
  | C_jump -> "jump"
  | C_indirect -> "indirect-jump"
  | C_muldiv -> "muldiv"
  | C_system -> "system"

type side = I | D

let side_name = function I -> "I" | D -> "D"

type t =
  | Retired of { pc : int; cls : inst_class }
      (* one instruction left the pipeline *)
  | Roload_issue of { pc : int; va : int; key : int }
      (* an ld.ro reached the MMU with its requested key *)
  | Roload_fault of {
      pc : int;
      va : int;
      key_requested : int;
      page_key : int;
      page_read_only : bool;
          (* false: the pointee page failed the R∧¬W∧¬X condition;
             true: the page is read-only but the key mismatched *)
    }
  | Tlb_access of { side : side; vpn : int; hit : bool }
  | Cache_access of { side : side; pa : int; write : bool; hit : bool; writeback : bool }
  | Block_enter of { pa : int; cached : bool }
      (* the traced engine's per-slot tier entered a block; [cached] =
         found pre-decoded *)
  | Block_decode of { pa : int } (* one slot lazily decoded and appended *)
  | Fault_triage of { kind : string; pc : int }
      (* the kernel classified a trap (e.g. "roload" vs "segv") *)
  | Syscall of { number : int; name : string; ret : int }
  | Request_done of { pid : int; id : int; latency : int }
      (* the request device retired request [id]: the serving task asked
         for the next one (or exited); [latency] in cycles *)
  | Injected of { kind : string; addr : int }
      (* roload-chaos applied a fault at this address (class in [kind]) *)
  | Request_redelivered of { id : int; attempt : int }
      (* the device took request [id] back from a dead worker and queued
         it again; [attempt] counts redeliveries of this id so far *)
  | Worker_restart of { pid : int; restarts : int }
      (* the supervisor reincarnated task [pid] from its birth template;
         [restarts] is the budget consumed by this pid so far *)

let name = function
  | Retired { cls; _ } -> "retire:" ^ inst_class_name cls
  | Roload_issue _ -> "ld.ro"
  | Roload_fault _ -> "ld.ro fault"
  | Tlb_access { side; hit; _ } ->
    Printf.sprintf "%s-TLB %s" (side_name side) (if hit then "hit" else "miss")
  | Cache_access { side; hit; writeback; _ } ->
    Printf.sprintf "L1%s %s%s" (side_name side)
      (if hit then "hit" else "miss")
      (if writeback then "+wb" else "")
  | Block_enter { cached; _ } -> if cached then "block hit" else "block start"
  | Block_decode _ -> "block decode"
  | Fault_triage { kind; _ } -> "fault:" ^ kind
  | Syscall { name; _ } -> "syscall:" ^ name
  | Request_done _ -> "request"
  | Injected { kind; _ } -> "inject:" ^ kind
  | Request_redelivered _ -> "redeliver"
  | Worker_restart _ -> "restart"

(* The lane each event renders on in trace viewers (Chrome's tid). *)
let lane = function
  | Retired _ | Roload_issue _ | Roload_fault _ -> 1
  | Tlb_access _ | Cache_access _ -> 2
  | Block_enter _ | Block_decode _ -> 3
  | Fault_triage _ | Syscall _ | Request_done _ | Injected _ | Request_redelivered _
  | Worker_restart _ ->
    4

let lane_name = function
  | 1 -> "cpu"
  | 2 -> "mem"
  | 3 -> "blocks"
  | _ -> "kernel"

(* argument payload as (key, rendered-JSON-fragment) pairs *)
let args ev =
  let module J = Roload_util.Json in
  let hex v = J.str (Printf.sprintf "0x%x" v) in
  match ev with
  | Retired { pc; cls } -> [ ("pc", hex pc); ("class", J.str (inst_class_name cls)) ]
  | Roload_issue { pc; va; key } -> [ ("pc", hex pc); ("va", hex va); ("key", J.int key) ]
  | Roload_fault { pc; va; key_requested; page_key; page_read_only } ->
    [ ("pc", hex pc); ("va", hex va); ("key_requested", J.int key_requested);
      ("page_key", J.int page_key); ("page_read_only", J.bool page_read_only) ]
  | Tlb_access { side; vpn; hit } ->
    [ ("tlb", J.str (side_name side)); ("vpn", hex vpn); ("hit", J.bool hit) ]
  | Cache_access { side; pa; write; hit; writeback } ->
    [ ("cache", J.str (side_name side)); ("pa", hex pa); ("write", J.bool write);
      ("hit", J.bool hit); ("writeback", J.bool writeback) ]
  | Block_enter { pa; cached } -> [ ("pa", hex pa); ("cached", J.bool cached) ]
  | Block_decode { pa } -> [ ("pa", hex pa) ]
  | Fault_triage { kind; pc } -> [ ("kind", J.str kind); ("pc", hex pc) ]
  | Syscall { number; name; ret } ->
    [ ("number", J.int number); ("name", J.str name); ("ret", J.int ret) ]
  | Request_done { pid; id; latency } ->
    [ ("pid", J.int pid); ("id", J.int id); ("latency", J.int latency) ]
  | Injected { kind; addr } -> [ ("kind", J.str kind); ("addr", hex addr) ]
  | Request_redelivered { id; attempt } -> [ ("id", J.int id); ("attempt", J.int attempt) ]
  | Worker_restart { pid; restarts } -> [ ("pid", J.int pid); ("restarts", J.int restarts) ]

let to_text_line ~ts ev =
  Printf.sprintf "%12Ld  %-16s  %s" ts (name ev)
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (args ev)))
