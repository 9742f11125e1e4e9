(* RVC (compressed, 16-bit) encodings for the subset the assembler's
   compressor emits, plus the paper's c.ld.ro.

   c.ld.ro occupies the reserved funct3=100 slot of quadrant 0 (in the real
   RV64C map that slot is reserved), with the CL register format and a 5-bit
   key: key[4:2] in inst[12:10], key[1:0] in inst[6:5].  It expands to
   [ld.ro rd', (rs1'), key].

   Compression is only attempted for instructions whose encoding does not
   depend on code layout (no c.j / c.beqz / c.bnez), so the assembler can
   compress in a single pass before the linker assigns addresses.  c.jr /
   c.jalr are layout-independent and are included. *)

let bits w ~lo ~width = (w lsr lo) land ((1 lsl width) - 1)

let creg i = Reg.of_compressed_index i

let sign_extend_int v width =
  let shift = 64 - width in
  Int64.shift_right (Int64.shift_left (Int64.of_int v) shift) shift

(* ---------- decoding ---------- *)

let decode_q0 hw =
  let funct3 = bits hw ~lo:13 ~width:3 in
  let rd' = creg (bits hw ~lo:2 ~width:3) in
  let rs1' = creg (bits hw ~lo:7 ~width:3) in
  match funct3 with
  | 0 ->
    (* c.addi4spn: nzuimm[5:4|9:6|2|3] at inst[12:5] *)
    let imm =
      (bits hw ~lo:11 ~width:2 lsl 4)
      lor (bits hw ~lo:7 ~width:4 lsl 6)
      lor (bits hw ~lo:6 ~width:1 lsl 2)
      lor (bits hw ~lo:5 ~width:1 lsl 3)
    in
    if imm = 0 then Error "c.addi4spn: zero immediate (reserved)"
    else Ok (Inst.Op_imm (Inst.Add, rd', Reg.sp, Int64.of_int imm))
  | 2 ->
    (* c.lw: uimm[5:3] at [12:10], uimm[2] at [6], uimm[6] at [5] *)
    let imm =
      (bits hw ~lo:10 ~width:3 lsl 3)
      lor (bits hw ~lo:6 ~width:1 lsl 2)
      lor (bits hw ~lo:5 ~width:1 lsl 6)
    in
    Ok (Inst.Load { width = Inst.Word; unsigned = false; rd = rd'; rs1 = rs1';
                    imm = Int64.of_int imm })
  | 3 ->
    (* c.ld: uimm[5:3] at [12:10], uimm[7:6] at [6:5] *)
    let imm = (bits hw ~lo:10 ~width:3 lsl 3) lor (bits hw ~lo:5 ~width:2 lsl 6) in
    Ok (Inst.Load { width = Inst.Double; unsigned = false; rd = rd'; rs1 = rs1';
                    imm = Int64.of_int imm })
  | 4 ->
    (* c.ld.ro (ROLoad extension): key[4:2] at [12:10], key[1:0] at [6:5] *)
    let key = (bits hw ~lo:10 ~width:3 lsl 2) lor bits hw ~lo:5 ~width:2 in
    Ok (Inst.Load_ro { width = Inst.Double; unsigned = false; rd = rd'; rs1 = rs1'; key })
  | 6 ->
    let imm =
      (bits hw ~lo:10 ~width:3 lsl 3)
      lor (bits hw ~lo:6 ~width:1 lsl 2)
      lor (bits hw ~lo:5 ~width:1 lsl 6)
    in
    Ok (Inst.Store { width = Inst.Word; rs2 = rd'; rs1 = rs1'; imm = Int64.of_int imm })
  | 7 ->
    let imm = (bits hw ~lo:10 ~width:3 lsl 3) lor (bits hw ~lo:5 ~width:2 lsl 6) in
    Ok (Inst.Store { width = Inst.Double; rs2 = rd'; rs1 = rs1'; imm = Int64.of_int imm })
  | f -> Error (Printf.sprintf "rvc q0: unsupported funct3 %d" f)

let decode_q1 hw =
  let funct3 = bits hw ~lo:13 ~width:3 in
  let rd = Reg.of_int (bits hw ~lo:7 ~width:5) in
  let imm6 () =
    sign_extend_int ((bits hw ~lo:12 ~width:1 lsl 5) lor bits hw ~lo:2 ~width:5) 6
  in
  match funct3 with
  | 0 ->
    (* c.nop / c.addi *)
    Ok (Inst.Op_imm (Inst.Add, rd, rd, imm6 ()))
  | 1 -> Ok (Inst.Op_imm_w (Inst.Addw, rd, rd, imm6 ())) (* c.addiw (RV64) *)
  | 2 -> Ok (Inst.Op_imm (Inst.Add, rd, Reg.zero, imm6 ())) (* c.li *)
  | 3 ->
    if Reg.to_int rd = 2 then begin
      (* c.addi16sp: nzimm[9] at [12]; [4|6|8:7|5] at [6:3] *)
      let v =
        (bits hw ~lo:12 ~width:1 lsl 9)
        lor (bits hw ~lo:6 ~width:1 lsl 4)
        lor (bits hw ~lo:5 ~width:1 lsl 6)
        lor (bits hw ~lo:3 ~width:2 lsl 7)
        lor (bits hw ~lo:2 ~width:1 lsl 5)
      in
      let imm = sign_extend_int v 10 in
      if imm = 0L then Error "c.addi16sp: zero immediate"
      else Ok (Inst.Op_imm (Inst.Add, Reg.sp, Reg.sp, imm))
    end
    else begin
      (* c.lui: imm[17] at [12], imm[16:12] at [6:2]; value is the 20-bit
         field, sign-extended into 20 bits *)
      let v = (bits hw ~lo:12 ~width:1 lsl 5) lor bits hw ~lo:2 ~width:5 in
      let imm = sign_extend_int v 6 in
      if imm = 0L then Error "c.lui: zero immediate"
      else Ok (Inst.Lui (rd, Int64.logand imm 0xFFFFFL))
    end
  | 4 -> (
    let rd' = creg (bits hw ~lo:7 ~width:3) in
    let rs2' = creg (bits hw ~lo:2 ~width:3) in
    match bits hw ~lo:10 ~width:2 with
    | 0 ->
      let shamt = (bits hw ~lo:12 ~width:1 lsl 5) lor bits hw ~lo:2 ~width:5 in
      Ok (Inst.Op_imm (Inst.Srl, rd', rd', Int64.of_int shamt))
    | 1 ->
      let shamt = (bits hw ~lo:12 ~width:1 lsl 5) lor bits hw ~lo:2 ~width:5 in
      Ok (Inst.Op_imm (Inst.Sra, rd', rd', Int64.of_int shamt))
    | 2 -> Ok (Inst.Op_imm (Inst.And, rd', rd', imm6 ()))
    | _ -> (
      match (bits hw ~lo:12 ~width:1, bits hw ~lo:5 ~width:2) with
      | 0, 0 -> Ok (Inst.Op (Inst.Sub, rd', rd', rs2'))
      | 0, 1 -> Ok (Inst.Op (Inst.Xor, rd', rd', rs2'))
      | 0, 2 -> Ok (Inst.Op (Inst.Or, rd', rd', rs2'))
      | 0, 3 -> Ok (Inst.Op (Inst.And, rd', rd', rs2'))
      | 1, 0 -> Ok (Inst.Op_w (Inst.Subw, rd', rd', rs2'))
      | 1, 1 -> Ok (Inst.Op_w (Inst.Addw, rd', rd', rs2'))
      | _ -> Error "rvc q1: reserved misc-alu"))
  | 5 ->
    (* c.j: offset[11|4|9:8|10|6|7|3:1|5] at [12:2] *)
    let v =
      (bits hw ~lo:12 ~width:1 lsl 11)
      lor (bits hw ~lo:11 ~width:1 lsl 4)
      lor (bits hw ~lo:9 ~width:2 lsl 8)
      lor (bits hw ~lo:8 ~width:1 lsl 10)
      lor (bits hw ~lo:7 ~width:1 lsl 6)
      lor (bits hw ~lo:6 ~width:1 lsl 7)
      lor (bits hw ~lo:3 ~width:3 lsl 1)
      lor (bits hw ~lo:2 ~width:1 lsl 5)
    in
    Ok (Inst.Jal (Reg.zero, sign_extend_int v 12))
  | 6 | 7 ->
    (* c.beqz / c.bnez: offset[8|4:3] at [12:10], [7:6|2:1|5] at [6:2] *)
    let rs1' = creg (bits hw ~lo:7 ~width:3) in
    let v =
      (bits hw ~lo:12 ~width:1 lsl 8)
      lor (bits hw ~lo:10 ~width:2 lsl 3)
      lor (bits hw ~lo:5 ~width:2 lsl 6)
      lor (bits hw ~lo:3 ~width:2 lsl 1)
      lor (bits hw ~lo:2 ~width:1 lsl 5)
    in
    let off = sign_extend_int v 9 in
    let cond = if funct3 = 6 then Inst.Beq else Inst.Bne in
    Ok (Inst.Branch (cond, rs1', Reg.zero, off))
  | _ -> assert false

let decode_q2 hw =
  let funct3 = bits hw ~lo:13 ~width:3 in
  let rd = Reg.of_int (bits hw ~lo:7 ~width:5) in
  let rs2 = Reg.of_int (bits hw ~lo:2 ~width:5) in
  match funct3 with
  | 0 ->
    let shamt = (bits hw ~lo:12 ~width:1 lsl 5) lor bits hw ~lo:2 ~width:5 in
    Ok (Inst.Op_imm (Inst.Sll, rd, rd, Int64.of_int shamt))
  | 2 ->
    (* c.lwsp: uimm[5] at [12], [4:2] at [6:4], [7:6] at [3:2] *)
    let imm =
      (bits hw ~lo:12 ~width:1 lsl 5)
      lor (bits hw ~lo:4 ~width:3 lsl 2)
      lor (bits hw ~lo:2 ~width:2 lsl 6)
    in
    if Reg.to_int rd = 0 then Error "c.lwsp: rd=0 reserved"
    else
      Ok (Inst.Load { width = Inst.Word; unsigned = false; rd; rs1 = Reg.sp;
                      imm = Int64.of_int imm })
  | 3 ->
    (* c.ldsp: uimm[5] at [12], [4:3] at [6:5], [8:6] at [4:2] *)
    let imm =
      (bits hw ~lo:12 ~width:1 lsl 5)
      lor (bits hw ~lo:5 ~width:2 lsl 3)
      lor (bits hw ~lo:2 ~width:3 lsl 6)
    in
    if Reg.to_int rd = 0 then Error "c.ldsp: rd=0 reserved"
    else
      Ok (Inst.Load { width = Inst.Double; unsigned = false; rd; rs1 = Reg.sp;
                      imm = Int64.of_int imm })
  | 4 -> (
    match (bits hw ~lo:12 ~width:1, Reg.to_int rd, Reg.to_int rs2) with
    | 0, 0, _ -> Error "rvc q2: reserved"
    | 0, _, 0 -> Ok (Inst.Jalr (Reg.zero, rd, 0L)) (* c.jr *)
    | 0, _, _ -> Ok (Inst.Op_imm (Inst.Add, rd, rs2, 0L)) (* c.mv *)
    | 1, 0, 0 -> Ok Inst.Ebreak
    | 1, _, 0 -> Ok (Inst.Jalr (Reg.ra, rd, 0L)) (* c.jalr *)
    | 1, _, _ -> Ok (Inst.Op (Inst.Add, rd, rd, rs2)) (* c.add *)
    | _ -> assert false)
  | 6 ->
    (* c.swsp: uimm[5:2] at [12:9], [7:6] at [8:7] *)
    let imm = (bits hw ~lo:9 ~width:4 lsl 2) lor (bits hw ~lo:7 ~width:2 lsl 6) in
    Ok (Inst.Store { width = Inst.Word; rs2; rs1 = Reg.sp; imm = Int64.of_int imm })
  | 7 ->
    (* c.sdsp: uimm[5:3] at [12:10], [8:6] at [9:7] *)
    let imm = (bits hw ~lo:10 ~width:3 lsl 3) lor (bits hw ~lo:7 ~width:3 lsl 6) in
    Ok (Inst.Store { width = Inst.Double; rs2; rs1 = Reg.sp; imm = Int64.of_int imm })
  | f -> Error (Printf.sprintf "rvc q2: unsupported funct3 %d" f)

let decode hw =
  let hw = hw land 0xFFFF in
  if hw = 0 then Error "illegal all-zero instruction"
  else
    match hw land 0x3 with
    | 0 -> decode_q0 hw
    | 1 -> decode_q1 hw
    | 2 -> decode_q2 hw
    | _ -> Error "not a compressed instruction"

(* ---------- compression ---------- *)

let q0 ~funct3 ~hi3 ~rs1' ~lo2 ~rd' =
  (funct3 lsl 13) lor (hi3 lsl 10) lor (Reg.compressed_index rs1' lsl 7)
  lor (lo2 lsl 5) lor (Reg.compressed_index rd' lsl 2)

let fits_uimm v ~width ~scale =
  v >= 0L && Int64.rem v (Int64.of_int scale) = 0L
  && Roload_util.Bits.fits_unsigned v ~width

let compress_load_store ~is_load ~width ~r ~rs1 ~imm =
  let imm_i = Int64.to_int imm in
  let sp_form () =
    if Reg.to_int rs1 <> 2 then None
    else
      match width with
      | Inst.Word when is_load && Reg.to_int r <> 0 && fits_uimm imm ~width:8 ~scale:4 ->
        Some
          ((2 lsl 13) lor (((imm_i lsr 5) land 1) lsl 12) lor (Reg.to_int r lsl 7)
           lor (((imm_i lsr 2) land 7) lsl 4) lor (((imm_i lsr 6) land 3) lsl 2) lor 2)
      | Inst.Double when is_load && Reg.to_int r <> 0 && fits_uimm imm ~width:9 ~scale:8 ->
        Some
          ((3 lsl 13) lor (((imm_i lsr 5) land 1) lsl 12) lor (Reg.to_int r lsl 7)
           lor (((imm_i lsr 3) land 3) lsl 5) lor (((imm_i lsr 6) land 7) lsl 2) lor 2)
      | Inst.Word when (not is_load) && fits_uimm imm ~width:8 ~scale:4 ->
        Some
          ((6 lsl 13) lor (((imm_i lsr 2) land 0xF) lsl 9)
           lor (((imm_i lsr 6) land 3) lsl 7) lor (Reg.to_int r lsl 2) lor 2)
      | Inst.Double when (not is_load) && fits_uimm imm ~width:9 ~scale:8 ->
        Some
          ((7 lsl 13) lor (((imm_i lsr 3) land 7) lsl 10)
           lor (((imm_i lsr 6) land 7) lsl 7) lor (Reg.to_int r lsl 2) lor 2)
      | Inst.Byte | Inst.Half | Inst.Word | Inst.Double -> None
  in
  let rs1' = rs1 in
  let reg_form () =
    if not (Reg.is_compressible r && Reg.is_compressible rs1) then None
    else
      match width with
      | Inst.Word when fits_uimm imm ~width:7 ~scale:4 ->
        let funct3 = if is_load then 2 else 6 in
        Some
          (q0 ~funct3 ~hi3:((imm_i lsr 3) land 7)
             ~rs1' ~lo2:((imm_i land 4) lsr 1 lor ((imm_i lsr 6) land 1)) ~rd':r)
      | Inst.Double when fits_uimm imm ~width:8 ~scale:8 ->
        let funct3 = if is_load then 3 else 7 in
        Some (q0 ~funct3 ~hi3:((imm_i lsr 3) land 7) ~rs1' ~lo2:((imm_i lsr 6) land 3) ~rd':r)
      | Inst.Byte | Inst.Half | Inst.Word | Inst.Double -> None
  in
  match sp_form () with Some w -> Some w | None -> reg_form ()

(* c.lw immediate scatter: uimm[5:3]→[12:10], uimm[2]→[6], uimm[6]→[5].
   The q0 helper above takes [hi3] = inst[12:10] and [lo2] = inst[6:5]. *)

let try_compress inst =
  match inst with
  | Inst.Load { width; unsigned = false; rd; rs1; imm } ->
    compress_load_store ~is_load:true ~width ~r:rd ~rs1 ~imm
  | Inst.Store { width; rs2; rs1; imm } ->
    compress_load_store ~is_load:false ~width ~r:rs2 ~rs1 ~imm
  | Inst.Load_ro { width = Inst.Double; unsigned = false; rd; rs1; key }
    when Reg.is_compressible rd && Reg.is_compressible rs1
         && Roload_ext.key_compressible key ->
    Some (q0 ~funct3:4 ~hi3:(key lsr 2) ~rs1':rs1 ~lo2:(key land 3) ~rd':rd)
  | Inst.Op_imm (Inst.Add, rd, rs1, imm) ->
    let rdn = Reg.to_int rd and rs1n = Reg.to_int rs1 in
    let imm_i = Int64.to_int imm in
    if rdn <> 0 && rs1n = rdn && imm <> 0L && Roload_util.Bits.fits_signed imm ~width:6
    then
      (* c.addi *)
      Some
        ((((imm_i lsr 5) land 1) lsl 12) lor (rdn lsl 7) lor ((imm_i land 0x1F) lsl 2) lor 1)
    else if rdn <> 0 && rs1n = 0 && Roload_util.Bits.fits_signed imm ~width:6 then
      (* c.li *)
      Some
        ((2 lsl 13) lor (((imm_i lsr 5) land 1) lsl 12) lor (rdn lsl 7)
         lor ((imm_i land 0x1F) lsl 2) lor 1)
    else if rdn <> 0 && rs1n <> 0 && imm = 0L then
      (* c.mv *)
      Some ((4 lsl 13) lor (rdn lsl 7) lor (rs1n lsl 2) lor 2)
    else if rdn = 2 && rs1n = 2 && imm <> 0L && Int64.rem imm 16L = 0L
            && Roload_util.Bits.fits_signed imm ~width:10 then
      (* c.addi16sp *)
      Some
        ((3 lsl 13) lor (((imm_i lsr 9) land 1) lsl 12) lor (2 lsl 7)
         lor (((imm_i lsr 4) land 1) lsl 6) lor (((imm_i lsr 6) land 1) lsl 5)
         lor (((imm_i lsr 7) land 3) lsl 3) lor (((imm_i lsr 5) land 1) lsl 2) lor 1)
    else if Reg.is_compressible rd && rs1n = 2 && imm > 0L && Int64.rem imm 4L = 0L
            && Roload_util.Bits.fits_unsigned imm ~width:10 then
      (* c.addi4spn *)
      Some
        ((((imm_i lsr 4) land 3) lsl 11) lor (((imm_i lsr 6) land 0xF) lsl 7)
         lor (((imm_i lsr 2) land 1) lsl 6) lor (((imm_i lsr 3) land 1) lsl 5)
         lor (Reg.compressed_index rd lsl 2) lor 0)
    else None
  | Inst.Op_imm (Inst.And, rd, rs1, imm)
    when Reg.equal rd rs1 && Reg.is_compressible rd
         && Roload_util.Bits.fits_signed imm ~width:6 ->
    let imm_i = Int64.to_int imm in
    Some
      ((4 lsl 13) lor (((imm_i lsr 5) land 1) lsl 12) lor (2 lsl 10)
       lor (Reg.compressed_index rd lsl 7) lor ((imm_i land 0x1F) lsl 2) lor 1)
  | Inst.Op_imm (Inst.Sll, rd, rs1, imm)
    when Reg.equal rd rs1 && Reg.to_int rd <> 0 && imm > 0L && imm < 64L ->
    let s = Int64.to_int imm in
    Some ((((s lsr 5) land 1) lsl 12) lor (Reg.to_int rd lsl 7) lor ((s land 0x1F) lsl 2) lor 2)
  | Inst.Op_imm ((Inst.Srl | Inst.Sra) as op, rd, rs1, imm)
    when Reg.equal rd rs1 && Reg.is_compressible rd && imm > 0L && imm < 64L ->
    let s = Int64.to_int imm in
    let sel = if op = Inst.Srl then 0 else 1 in
    Some
      ((4 lsl 13) lor (((s lsr 5) land 1) lsl 12) lor (sel lsl 10)
       lor (Reg.compressed_index rd lsl 7) lor ((s land 0x1F) lsl 2) lor 1)
  | Inst.Op_imm_w (Inst.Addw, rd, rs1, imm)
    when Reg.equal rd rs1 && Reg.to_int rd <> 0
         && Roload_util.Bits.fits_signed imm ~width:6 ->
    let imm_i = Int64.to_int imm in
    Some
      ((1 lsl 13) lor (((imm_i lsr 5) land 1) lsl 12) lor (Reg.to_int rd lsl 7)
       lor ((imm_i land 0x1F) lsl 2) lor 1)
  | Inst.Lui (rd, imm) when Reg.to_int rd <> 0 && Reg.to_int rd <> 2 ->
    (* c.lui accepts a 6-bit signed field value (non-zero). *)
    let field = Roload_util.Bits.sign_extend imm ~width:20 in
    if field <> 0L && Roload_util.Bits.fits_signed field ~width:6 then
      let v = Int64.to_int (Int64.logand field 0x3FL) in
      Some
        ((3 lsl 13) lor (((v lsr 5) land 1) lsl 12) lor (Reg.to_int rd lsl 7)
         lor ((v land 0x1F) lsl 2) lor 1)
    else None
  | Inst.Op ((Inst.Sub | Inst.Xor | Inst.Or | Inst.And) as op, rd, rs1, rs2)
    when Reg.equal rd rs1 && Reg.is_compressible rd && Reg.is_compressible rs2 ->
    let sel =
      match op with
      | Inst.Sub -> 0
      | Inst.Xor -> 1
      | Inst.Or -> 2
      | Inst.And -> 3
      | Inst.Add | Inst.Sll | Inst.Slt | Inst.Sltu | Inst.Srl | Inst.Sra -> assert false
    in
    Some
      ((4 lsl 13) lor (3 lsl 10) lor (Reg.compressed_index rd lsl 7) lor (sel lsl 5)
       lor (Reg.compressed_index rs2 lsl 2) lor 1)
  | Inst.Op (Inst.Add, rd, rs1, rs2) when Reg.to_int rd <> 0 && Reg.to_int rs2 <> 0 ->
    if Reg.equal rd rs1 then
      Some ((4 lsl 13) lor (1 lsl 12) lor (Reg.to_int rd lsl 7) lor (Reg.to_int rs2 lsl 2) lor 2)
    else None
  | Inst.Op_w ((Inst.Subw | Inst.Addw) as op, rd, rs1, rs2)
    when Reg.equal rd rs1 && Reg.is_compressible rd && Reg.is_compressible rs2 ->
    let sel = if op = Inst.Subw then 0 else 1 in
    Some
      ((4 lsl 13) lor (1 lsl 12) lor (3 lsl 10) lor (Reg.compressed_index rd lsl 7)
       lor (sel lsl 5) lor (Reg.compressed_index rs2 lsl 2) lor 1)
  | Inst.Jalr (rd, rs1, 0L) when Reg.to_int rs1 <> 0 -> (
    match Reg.to_int rd with
    | 0 -> Some ((4 lsl 13) lor (Reg.to_int rs1 lsl 7) lor 2) (* c.jr *)
    | 1 -> Some ((4 lsl 13) lor (1 lsl 12) lor (Reg.to_int rs1 lsl 7) lor 2) (* c.jalr *)
    | _ -> None)
  | Inst.Ebreak -> Some ((4 lsl 13) lor (1 lsl 12) lor 2)
  | Inst.Lui _ | Inst.Auipc _ | Inst.Jal _ | Inst.Jalr _ | Inst.Branch _
  | Inst.Load _ | Inst.Load_ro _ | Inst.Op_imm _ | Inst.Op_imm_w _ | Inst.Op _
  | Inst.Op_w _ | Inst.Mulop _ | Inst.Mulop_w _ | Inst.Ecall | Inst.Fence ->
    None
