(* Sv39 page-table entries, extended with the ROLoad key.

   Standard layout (64-bit):
     bit 0   V     valid
     bit 1   R     readable
     bit 2   W     writable
     bit 3   X     executable
     bit 4   U     user-accessible
     bit 5   G     global
     bit 6   A     accessed
     bit 7   D     dirty
     bits 9:8     RSW (software)
     bits 53:10   PPN
     bits 63:54   reserved — ROLoad reuses these 10 bits as the page *key*
                  (paper §III-A: "we reuse the previously reserved top 10
                  bits of each page table entry"). *)

type t = int64

let v_bit = 0
let r_bit = 1
let w_bit = 2
let x_bit = 3
let u_bit = 4
let g_bit = 5
let a_bit = 6
let d_bit = 7

let ppn_lo = 10
let ppn_width = 44
let key_lo = 54
let key_width = 10

let invalid_pte = 0L

let make ~ppn ~perms ~user ~key =
  if key < 0 || key >= 1 lsl key_width then invalid_arg "Pte.make: key out of range";
  if ppn < 0 then invalid_arg "Pte.make: negative ppn";
  let open Roload_util.Bits in
  let t = 0L in
  let t = set_bit t v_bit true in
  let t = set_bit t r_bit perms.Perm.r in
  let t = set_bit t w_bit perms.Perm.w in
  let t = set_bit t x_bit perms.Perm.x in
  let t = set_bit t u_bit user in
  let t = set_bit t a_bit true in
  let t = set_bit t d_bit perms.Perm.w in
  let t = insert t ~lo:ppn_lo ~width:ppn_width ~field:(Int64.of_int ppn) in
  insert t ~lo:key_lo ~width:key_width ~field:(Int64.of_int key)

(* A non-leaf (pointer) PTE: V set, R/W/X all clear. *)
let make_table ~ppn =
  let open Roload_util.Bits in
  let t = set_bit 0L v_bit true in
  insert t ~lo:ppn_lo ~width:ppn_width ~field:(Int64.of_int ppn)

let valid t = Roload_util.Bits.bit t v_bit
let readable t = Roload_util.Bits.bit t r_bit
let writable t = Roload_util.Bits.bit t w_bit
let executable t = Roload_util.Bits.bit t x_bit
let user t = Roload_util.Bits.bit t u_bit
let global t = Roload_util.Bits.bit t g_bit
let accessed t = Roload_util.Bits.bit t a_bit
let dirty t = Roload_util.Bits.bit t d_bit

let is_leaf t = readable t || writable t || executable t
let ppn t = Int64.to_int (Int64.shift_right_logical t ppn_lo) land ((1 lsl ppn_width) - 1)
let key t = Int64.to_int (Int64.shift_right_logical t key_lo)

let perms t = { Perm.r = readable t; w = writable t; x = executable t }

let with_perms t p =
  let open Roload_util.Bits in
  let t = set_bit t r_bit p.Perm.r in
  let t = set_bit t w_bit p.Perm.w in
  set_bit t x_bit p.Perm.x

let with_key t k =
  if k < 0 || k >= 1 lsl key_width then invalid_arg "Pte.with_key";
  Roload_util.Bits.insert t ~lo:key_lo ~width:key_width ~field:(Int64.of_int k)

(* Fault-injection backdoor (roload-chaos): flip one bit of the key
   field, as a stuck-at/soft-error model for the reserved top bits the
   ROLoad key reuses.  Not used by any architectural path. *)
let flip_key_bit t ~bit =
  if bit < 0 || bit >= key_width then invalid_arg "Pte.flip_key_bit";
  with_key t (key t lxor (1 lsl bit))

let to_int64 t = t
let of_int64 t = t

let to_string t =
  if not (valid t) then "<invalid>"
  else if not (is_leaf t) then Printf.sprintf "table -> ppn=0x%x" (ppn t)
  else
    Printf.sprintf "leaf ppn=0x%x perms=%s key=%d%s" (ppn t)
      (Perm.to_string (perms t)) (key t)
      (if user t then " user" else "")
