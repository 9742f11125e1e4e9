(* RV64 integer arithmetic semantics, including the M-extension edge cases
   (division by zero, signed overflow) as mandated by the RISC-V spec. *)

let sext32 v = Int64.of_int32 (Int64.to_int32 v)

let shamt6 v = Int64.to_int (Int64.logand v 0x3FL)
let shamt5 v = Int64.to_int (Int64.logand v 0x1FL)

let bool64 b = if b then 1L else 0L

let op (o : Roload_isa.Inst.alu_op) a b =
  match o with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Sll -> Int64.shift_left a (shamt6 b)
  | Slt -> bool64 (Int64.compare a b < 0)
  | Sltu -> bool64 (Roload_util.Bits.ult a b)
  | Xor -> Int64.logxor a b
  | Srl -> Int64.shift_right_logical a (shamt6 b)
  | Sra -> Int64.shift_right a (shamt6 b)
  | Or -> Int64.logor a b
  | And -> Int64.logand a b

let op_w (o : Roload_isa.Inst.alu_w_op) a b =
  match o with
  | Addw -> sext32 (Int64.add a b)
  | Subw -> sext32 (Int64.sub a b)
  | Sllw -> sext32 (Int64.shift_left a (shamt5 b))
  | Srlw ->
    let a32 = Int64.logand a 0xFFFFFFFFL in
    sext32 (Int64.shift_right_logical a32 (shamt5 b))
  | Sraw -> sext32 (Int64.shift_right (sext32 a) (shamt5 b))

(* High 64 bits of the unsigned 128-bit product, by 32-bit limbs. *)
let mulhu a b =
  let lo32 = 0xFFFFFFFFL in
  let a0 = Int64.logand a lo32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b lo32 and b1 = Int64.shift_right_logical b 32 in
  let t = Int64.mul a0 b0 in
  let k = Int64.shift_right_logical t 32 in
  let t1 = Int64.add (Int64.mul a1 b0) k in
  let k1 = Int64.logand t1 lo32 in
  let k2 = Int64.shift_right_logical t1 32 in
  let t2 = Int64.add (Int64.mul a0 b1) k1 in
  Int64.add (Int64.add (Int64.mul a1 b1) k2) (Int64.shift_right_logical t2 32)

let mulh a b =
  let u = mulhu a b in
  let u = if Int64.compare a 0L < 0 then Int64.sub u b else u in
  if Int64.compare b 0L < 0 then Int64.sub u a else u

let mulhsu a b =
  let u = mulhu a b in
  if Int64.compare a 0L < 0 then Int64.sub u b else u

let div_signed a b =
  if b = 0L then -1L
  else if a = Int64.min_int && b = -1L then Int64.min_int
  else Int64.div a b

let rem_signed a b =
  if b = 0L then a
  else if a = Int64.min_int && b = -1L then 0L
  else Int64.rem a b

let div_unsigned a b = if b = 0L then -1L else Roload_util.Bits.udiv a b
let rem_unsigned a b = if b = 0L then a else Roload_util.Bits.urem a b

let mulop (o : Roload_isa.Inst.mul_op) a b =
  match o with
  | Mul -> Int64.mul a b
  | Mulh -> mulh a b
  | Mulhsu -> mulhsu a b
  | Mulhu -> mulhu a b
  | Div -> div_signed a b
  | Divu -> div_unsigned a b
  | Rem -> rem_signed a b
  | Remu -> rem_unsigned a b

let mulop_w (o : Roload_isa.Inst.mul_w_op) a b =
  let a32 = sext32 a and b32 = sext32 b in
  match o with
  | Mulw -> sext32 (Int64.mul a32 b32)
  | Divw ->
    if b32 = 0L then -1L
    else if a32 = Int64.of_int32 Int32.min_int && b32 = -1L then sext32 a32
    else sext32 (Int64.div a32 b32)
  | Divuw ->
    let au = Int64.logand a 0xFFFFFFFFL and bu = Int64.logand b 0xFFFFFFFFL in
    if bu = 0L then -1L else sext32 (Int64.div au bu)
  | Remw ->
    if b32 = 0L then sext32 a32
    else if a32 = Int64.of_int32 Int32.min_int && b32 = -1L then 0L
    else sext32 (Int64.rem a32 b32)
  | Remuw ->
    let au = Int64.logand a 0xFFFFFFFFL and bu = Int64.logand b 0xFFFFFFFFL in
    if bu = 0L then sext32 au else sext32 (Int64.rem au bu)
