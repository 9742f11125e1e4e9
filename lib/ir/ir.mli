(** The compiler's mid-level IR: a typed, register-based (non-SSA)
    three-address representation with explicit basic blocks.

    The ROLoad-md mechanism of paper §III-C is modelled by metadata on
    memory-reading operations: a hardening pass sets [roload_key] on the
    loads feeding sensitive operations and the code generator then emits
    ld.ro-family instructions.  Baseline defenses (VTint, label CFI) use
    the same metadata blocks, so every scheme flows through one code
    generator. *)

type ty =
  | I64
  | I8
  | Ptr of ty
  | Fun_ptr of signature
  | Struct_ref of string
  | Class_ref of string
  | Void

and signature = { params : ty list; ret : ty }

val ty_to_string : ty -> string
val signature_to_string : signature -> string

val signature_id : signature -> string
(** A stable identifier for a function type — the type-based-CFI
    equivalence class of paper §IV-B. *)

type temp = int

type value =
  | Temp of temp
  | Const of int64
  | Global of string  (** address of a global symbol *)
  | Func_addr of string  (** address of a function (address-taken) *)

val value_to_string : value -> string

type width = W8 | W64

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr | Shru
  | Eq | Ne | Lt | Le | Gt | Ge

val binop_to_string : binop -> string

type load_md = {
  mutable roload_key : int option;
  mutable ro_elided : bool;
      (** set by roload-elide: the key stays for auditing but codegen emits
          a plain load — the check is statically proven redundant *)
}

val no_md : unit -> load_md

type vcall_md = {
  mutable vc_roload_key : int option;
  mutable vc_vtint : bool;
  mutable vc_cfi_label : int option;
}

type icall_md = {
  mutable ic_roload_key : int option;
  mutable ic_elided : bool;  (** see {!load_md.ro_elided} *)
  mutable ic_cfi_label : int option;
}

type instr =
  | Bin of binop * temp * value * value
  | Load of { dst : temp; addr : value; offset : int; width : width; md : load_md }
  | Store of { src : value; addr : value; offset : int; width : width }
  | Lea_frame of temp * int
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
      args : value list;
      md : vcall_md;
    }

type terminator =
  | Br of string
  | Cbr of value * string * string
  | Ret of value option
  | Halt

type block = {
  b_label : string;
  mutable b_instrs : instr list;
  mutable b_term : terminator;
}

type frame_slot = { slot_id : int; slot_size : int }

type func = {
  f_name : string;
  f_sig : signature;
  mutable f_params : temp list;
  mutable f_blocks : block list;
  mutable f_ntemps : int;
  mutable f_frame_slots : frame_slot list;
  mutable f_cfi_id : int option;
}

type ginit_word = G_int of int64 | G_func of string | G_global of string

type global = {
  g_name : string;
  g_section : string;
  g_init : ginit_word list;
  g_bytes : string option;
  g_zero : int;
}

type vtable_info = {
  vt_class : string;
  vt_symbol : string;
  vt_root : string;
  vt_methods : string list;
}

type modul = {
  m_name : string;
  mutable m_funcs : func list;
  mutable m_globals : global list;
  mutable m_vtables : vtable_info list;
  mutable m_ret_key : int option;
      (** backward-edge protection (paper §IV-C): when set, module-local
          calls pass a pointer to a keyed read-only return-site cell in
          ra, and epilogues return through ld.ro with this key *)
}

val copy_module : modul -> modul
(** A copy that shares no mutable record with the original: fresh
    module, function and block records and fresh [load_md], [icall_md]
    and [vcall_md] records.  Passes and code generation may mutate the
    copy freely; compiling every scheme from its own copy of one
    optimised lowering gives the same executables as lowering afresh. *)

val new_temp : func -> temp
val new_frame_slot : func -> size:int -> int
val find_block : func -> string -> block option
val find_func : modul -> string -> func option
val find_global : modul -> string -> global option
val instr_defs : instr -> temp list
val instr_uses : instr -> temp list
val term_uses : terminator -> temp list
val is_call : instr -> bool
val successors : terminator -> string list
val instr_to_string : instr -> string
val term_to_string : terminator -> string
val func_to_string : func -> string
val modul_to_string : modul -> string
