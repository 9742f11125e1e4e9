(* The compiler's mid-level IR: a typed, register-based (non-SSA)
   three-address representation with explicit basic blocks.

   The ROLoad-md mechanism of paper §III-C is modelled by metadata fields
   on the memory-reading operations ([load_md]): a hardening pass sets
   [roload_key] on the loads feeding sensitive operations, and the code
   generator then emits ld.ro-family instructions (plus the extra addi the
   paper mentions, since ld.ro has no offset immediate).  Baseline
   defenses (VTint, label CFI) use the same metadata block, so every
   scheme flows through one code generator. *)

type ty =
  | I64
  | I8
  | Ptr of ty
  | Fun_ptr of signature (* pointer to function of this signature *)
  | Struct_ref of string
  | Class_ref of string
  | Void

and signature = { params : ty list; ret : ty }

let rec ty_to_string = function
  | I64 -> "i64"
  | I8 -> "i8"
  | Ptr t -> ty_to_string t ^ "*"
  | Fun_ptr s -> Printf.sprintf "(%s)" (signature_to_string s)
  | Struct_ref n -> "struct " ^ n
  | Class_ref n -> "class " ^ n
  | Void -> "void"

and signature_to_string s =
  Printf.sprintf "%s(%s)" (ty_to_string s.ret)
    (String.concat "," (List.map ty_to_string s.params))

(* A stable, linker-safe identifier for a function type; used as the
   type-based CFI equivalence class (paper §IV-B: keys are "equivalent to
   function types"). *)
let signature_id s =
  let raw = signature_to_string s in
  let h = Hashtbl.hash raw land 0xFFFF in
  Printf.sprintf "sig%04x" h

type temp = int

type value =
  | Temp of temp
  | Const of int64
  | Global of string (* address of a global symbol *)
  | Func_addr of string (* address of a function (address-taken) *)

let value_to_string = function
  | Temp t -> Printf.sprintf "%%t%d" t
  | Const c -> Int64.to_string c
  | Global g -> "@" ^ g
  | Func_addr f -> "&" ^ f

type width = W8 | W64

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr | Shru
  | Eq | Ne | Lt | Le | Gt | Ge

let binop_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Shru -> "shru" | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le"
  | Gt -> "gt" | Ge -> "ge"

(* ROLoad-md & friends: per-operation hardening metadata.

   The [*_elided] flags are set by the proof-guided optimizer
   (roload-elide): the key stays on the site for auditing, but code
   generation emits a plain load — an earlier check of the same value (or
   a provably-constant keyed address) already guarantees the pointee. *)
type load_md = {
  mutable roload_key : int option;
  mutable ro_elided : bool; (* key kept for audit, check proven redundant *)
}

let no_md () = { roload_key = None; ro_elided = false }

type vcall_md = {
  mutable vc_roload_key : int option; (* VCall / ICall-unified protection *)
  mutable vc_vtint : bool; (* VTint range check on the vtable pointer *)
  mutable vc_cfi_label : int option; (* label-CFI check on the loaded target *)
}

type icall_md = {
  mutable ic_roload_key : int option; (* ICall: callee value is a GFPT slot *)
  mutable ic_elided : bool; (* key kept for audit, check proven redundant *)
  mutable ic_cfi_label : int option; (* label-CFI check before the jump *)
}

type instr =
  | Bin of binop * temp * value * value
  | Load of { dst : temp; addr : value; offset : int; width : width; md : load_md }
  | Store of { src : value; addr : value; offset : int; width : width }
  | Lea_frame of temp * int (* address of frame slot n *)
  | Call of { dst : temp option; callee : string; args : value list }
  | Call_indirect of {
      dst : temp option;
      callee : value;
      args : value list;
      sig_id : string;
      md : icall_md;
    }
  | Vcall of {
      dst : temp option;
      obj : value;
      slot : int;
      class_name : string;
      args : value list; (* excluding [obj], which becomes [this]/a0 *)
      md : vcall_md;
    }

type terminator =
  | Br of string
  | Cbr of value * string * string (* nonzero -> first *)
  | Ret of value option
  | Halt (* abort: lowers to ebreak *)

type block = {
  b_label : string;
  mutable b_instrs : instr list;
  mutable b_term : terminator;
}

type frame_slot = { slot_id : int; slot_size : int }

type func = {
  f_name : string;
  f_sig : signature;
  mutable f_params : temp list; (* parameter temps, in order *)
  mutable f_blocks : block list; (* entry block first *)
  mutable f_ntemps : int;
  mutable f_frame_slots : frame_slot list;
  mutable f_cfi_id : int option; (* label-CFI function ID, set by the pass *)
}

type ginit_word =
  | G_int of int64
  | G_func of string
  | G_global of string

type global = {
  g_name : string;
  g_section : string; (* e.g. ".data", ".rodata", ".rodata.key.7" *)
  g_init : ginit_word list; (* 8-byte words *)
  g_bytes : string option; (* raw byte initializer (strings); overrides g_init *)
  g_zero : int; (* trailing zero bytes *)
}

type vtable_info = {
  vt_class : string;
  vt_symbol : string; (* the global holding the table *)
  vt_root : string; (* root of the class hierarchy (key granularity) *)
  vt_methods : string list; (* implementing function per slot *)
}

type modul = {
  m_name : string;
  mutable m_funcs : func list;
  mutable m_globals : global list;
  mutable m_vtables : vtable_info list;
  mutable m_ret_key : int option;
      (* backward-edge protection (paper §IV-C): when set, module-local
         calls pass a pointer to a keyed read-only return-site cell in ra,
         and epilogues return through ld.ro with this key *)
}

(* ---------- copies ---------- *)

(* A module every compile can take apart: fresh module, function and
   block records and fresh metadata records, so passes that mutate the
   copy leave the original as it was.  Everything else in the IR is
   immutable and is shared. *)
let copy_instr = function
  | Load ({ md; _ } as l) ->
    Load { l with md = { roload_key = md.roload_key; ro_elided = md.ro_elided } }
  | Call_indirect ({ md; _ } as c) ->
    Call_indirect
      { c with
        md =
          { ic_roload_key = md.ic_roload_key; ic_elided = md.ic_elided;
            ic_cfi_label = md.ic_cfi_label } }
  | Vcall ({ md; _ } as v) ->
    Vcall
      { v with
        md =
          { vc_roload_key = md.vc_roload_key; vc_vtint = md.vc_vtint;
            vc_cfi_label = md.vc_cfi_label } }
  | (Bin _ | Store _ | Lea_frame _ | Call _) as i -> i

let copy_block b = { b with b_instrs = List.map copy_instr b.b_instrs }
let copy_func f = { f with f_blocks = List.map copy_block f.f_blocks }
let copy_module m = { m with m_funcs = List.map copy_func m.m_funcs }

(* ---------- construction helpers ---------- *)

let new_temp f =
  let t = f.f_ntemps in
  f.f_ntemps <- t + 1;
  t

let new_frame_slot f ~size =
  let id = List.length f.f_frame_slots in
  f.f_frame_slots <- f.f_frame_slots @ [ { slot_id = id; slot_size = size } ];
  id

let find_block f label = List.find_opt (fun b -> b.b_label = label) f.f_blocks

let find_func m name = List.find_opt (fun f -> f.f_name = name) m.m_funcs
let find_global m name = List.find_opt (fun g -> g.g_name = name) m.m_globals

let instr_defs = function
  | Bin (_, d, _, _) -> [ d ]
  | Load { dst; _ } -> [ dst ]
  | Lea_frame (d, _) -> [ d ]
  | Store _ -> []
  | Call { dst; _ } | Call_indirect { dst; _ } | Vcall { dst; _ } ->
    Option.to_list dst

let value_uses = function
  | Temp t -> [ t ]
  | Const _ | Global _ | Func_addr _ -> []

let instr_uses = function
  | Bin (_, _, a, b) -> value_uses a @ value_uses b
  | Load { addr; _ } -> value_uses addr
  | Store { src; addr; _ } -> value_uses src @ value_uses addr
  | Lea_frame _ -> []
  | Call { args; _ } -> List.concat_map value_uses args
  | Call_indirect { callee; args; _ } -> value_uses callee @ List.concat_map value_uses args
  | Vcall { obj; args; _ } -> value_uses obj @ List.concat_map value_uses args

let term_uses = function
  | Br _ | Halt -> []
  | Cbr (v, _, _) -> value_uses v
  | Ret v -> ( match v with Some v -> value_uses v | None -> [])

let is_call = function
  | Call _ | Call_indirect _ | Vcall _ -> true
  | Bin _ | Load _ | Store _ | Lea_frame _ -> false

let successors = function
  | Br l -> [ l ]
  | Cbr (_, a, b) -> [ a; b ]
  | Ret _ | Halt -> []

(* ---------- printing ---------- *)

let instr_to_string i =
  let v = value_to_string in
  let md_str (md : load_md) =
    match md.roload_key with
    | None -> ""
    | Some k -> Printf.sprintf " !roload(%d)%s" k (if md.ro_elided then " !elided" else "")
  in
  match i with
  | Bin (op, d, a, b) ->
    Printf.sprintf "%%t%d = %s %s, %s" d (binop_to_string op) (v a) (v b)
  | Load { dst; addr; offset; width; md } ->
    Printf.sprintf "%%t%d = load.%s %s+%d%s" dst
      (match width with W8 -> "8" | W64 -> "64")
      (v addr) offset (md_str md)
  | Store { src; addr; offset; width } ->
    Printf.sprintf "store.%s %s, %s+%d"
      (match width with W8 -> "8" | W64 -> "64")
      (v src) (v addr) offset
  | Lea_frame (d, s) -> Printf.sprintf "%%t%d = lea_frame %d" d s
  | Call { dst; callee; args } ->
    Printf.sprintf "%scall @%s(%s)"
      (match dst with Some d -> Printf.sprintf "%%t%d = " d | None -> "")
      callee
      (String.concat ", " (List.map v args))
  | Call_indirect { dst; callee; args; sig_id; md } ->
    Printf.sprintf "%sicall[%s] %s(%s)%s%s"
      (match dst with Some d -> Printf.sprintf "%%t%d = " d | None -> "")
      sig_id (v callee)
      (String.concat ", " (List.map v args))
      (match md.ic_roload_key with
      | None -> ""
      | Some k -> Printf.sprintf " !roload(%d)%s" k (if md.ic_elided then " !elided" else ""))
      (match md.ic_cfi_label with None -> "" | Some l -> Printf.sprintf " !cfi(%d)" l)
  | Vcall { dst; obj; slot; class_name; args; md } ->
    Printf.sprintf "%svcall %s->%s[%d](%s)%s%s"
      (match dst with Some d -> Printf.sprintf "%%t%d = " d | None -> "")
      (v obj) class_name slot
      (String.concat ", " (List.map v args))
      (match md.vc_roload_key with None -> "" | Some k -> Printf.sprintf " !roload(%d)" k)
      (if md.vc_vtint then " !vtint" else "")

let term_to_string = function
  | Br l -> "br " ^ l
  | Cbr (c, a, b) -> Printf.sprintf "cbr %s, %s, %s" (value_to_string c) a b
  | Ret None -> "ret"
  | Ret (Some vv) -> "ret " ^ value_to_string vv
  | Halt -> "halt"

let func_to_string f =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "func %s %s(params: %s) {\n" (ty_to_string f.f_sig.ret) f.f_name
       (String.concat ", " (List.map (Printf.sprintf "%%t%d") f.f_params)));
  List.iter
    (fun blk ->
      Buffer.add_string b (blk.b_label ^ ":\n");
      List.iter (fun i -> Buffer.add_string b ("  " ^ instr_to_string i ^ "\n")) blk.b_instrs;
      Buffer.add_string b ("  " ^ term_to_string blk.b_term ^ "\n"))
    f.f_blocks;
  Buffer.add_string b "}\n";
  Buffer.contents b

let modul_to_string m =
  let b = Buffer.create 1024 in
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "global %s (%s) words=%d bytes=%s zero=%d\n" g.g_name g.g_section
           (List.length g.g_init)
           (match g.g_bytes with Some s -> string_of_int (String.length s) | None -> "-")
           g.g_zero))
    m.m_globals;
  List.iter (fun f -> Buffer.add_string b (func_to_string f)) m.m_funcs;
  Buffer.contents b
