(* Paged physical memory with copy-on-write snapshots.  All accesses are
   little-endian.  Out-of-range accesses raise [Out_of_range]; virtual-
   address permission enforcement happens above this layer, in the MMU.

   Memory is an array of 4 KiB pages plus a per-page ownership byte.  A
   snapshot freezes the current pages: it keeps a pointer copy of the
   page array and clears every ownership byte, so the live memory and
   the image share pages until the next store to each — the first store
   to an un-owned page copies that one page (copy-on-write).  Frozen
   image pages are never written again, which makes an [image] safe to
   share read-only across domains and makes [fork] O(page-count pointer
   copies) instead of O(memory size): a forked 64 MiB machine allocates
   nothing until it actually dirties pages. *)

exception Out_of_range of int

let page_shift = 12
let page_bytes = 1 lsl page_shift
let page_mask = page_bytes - 1

type t = {
  pages : Bytes.t array;
  owned : Bytes.t; (* one byte per page; '\001' = this [t] may write in place *)
  size : int;
}

type image = { i_pages : Bytes.t array; i_size : int }

let create ~size =
  if size <= 0 then invalid_arg "Phys_mem.create";
  let npages = (size + page_bytes - 1) / page_bytes in
  {
    pages = Array.init npages (fun _ -> Bytes.make page_bytes '\000');
    owned = Bytes.make npages '\001';
    size;
  }

let size t = t.size

let[@inline] check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then raise (Out_of_range addr)

(* Copy-on-write fault: the first store into a page shared with a frozen
   image copies the page and takes ownership. *)
let own_page t p =
  if Bytes.unsafe_get t.owned p <> '\001' then begin
    Array.unsafe_set t.pages p (Bytes.copy (Array.unsafe_get t.pages p));
    Bytes.unsafe_set t.owned p '\001'
  end

let snapshot t =
  let img = { i_pages = Array.copy t.pages; i_size = t.size } in
  Bytes.fill t.owned 0 (Array.length t.pages) '\000';
  img

let restore t img =
  if img.i_size <> t.size then invalid_arg "Phys_mem.restore: size mismatch";
  Array.blit img.i_pages 0 t.pages 0 (Array.length t.pages);
  Bytes.fill t.owned 0 (Array.length t.pages) '\000'

let fork img =
  {
    pages = Array.copy img.i_pages;
    owned = Bytes.make (Array.length img.i_pages) '\000';
    size = img.i_size;
  }

type page_diff = { page : int; addr : int; a_byte : int; b_byte : int }

(* Page-by-page comparator.  Pages still physically shared between the
   two images (the common case for twin forks of one snapshot) compare
   equal by pointer in O(1), so diffing two forks costs O(page count)
   plus a byte scan of only the pages either side dirtied. *)
let diff_images a b =
  if a.i_size <> b.i_size then invalid_arg "Phys_mem.diff_images: size mismatch";
  let out = ref [] in
  for p = Array.length a.i_pages - 1 downto 0 do
    let pa = a.i_pages.(p) and pb = b.i_pages.(p) in
    if pa != pb && not (Bytes.equal pa pb) then begin
      let off = ref 0 in
      while Bytes.unsafe_get pa !off = Bytes.unsafe_get pb !off do
        incr off
      done;
      out :=
        {
          page = p;
          addr = (p lsl page_shift) + !off;
          a_byte = Char.code (Bytes.get pa !off);
          b_byte = Char.code (Bytes.get pb !off);
        }
        :: !out
    end
  done;
  !out

(* ---- accessors ----
   Aligned power-of-two accesses never straddle a page; the unaligned
   straddling case (reachable only through backdoors and block copies)
   falls back to a byte loop. *)

(* The page under an access of [len] bytes at [addr] that stays inside
   one page (any aligned access of up to 8 bytes), owned first when the
   caller will write it — the one accessor the trace engine's loads and
   stores go through, reading and writing the page [Bytes] in place. *)
let page t addr ~len ~write =
  check t addr len;
  if (addr land page_mask) + len > page_bytes then invalid_arg "Phys_mem.page: straddles a page";
  let p = addr lsr page_shift in
  if write && Bytes.unsafe_get t.owned p <> '\001' then own_page t p;
  Array.unsafe_get t.pages p

let read_u8 t addr =
  check t addr 1;
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get t.pages (addr lsr page_shift)) (addr land page_mask))

let write_u8 t addr v =
  check t addr 1;
  let p = addr lsr page_shift in
  own_page t p;
  Bytes.unsafe_set (Array.unsafe_get t.pages p) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

let rec read_le t addr len =
  if len = 0 then 0L
  else
    Int64.logor
      (Int64.of_int (read_u8 t addr))
      (Int64.shift_left (read_le t (addr + 1) (len - 1)) 8)

let write_le t addr len v =
  for i = 0 to len - 1 do
    write_u8 t (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let read_u16 t addr =
  check t addr 2;
  let off = addr land page_mask in
  if off <= page_bytes - 2 then
    Bytes.get_uint16_le (Array.unsafe_get t.pages (addr lsr page_shift)) off
  else Int64.to_int (read_le t addr 2)

let write_u16 t addr v =
  check t addr 2;
  let off = addr land page_mask in
  if off <= page_bytes - 2 then begin
    let p = addr lsr page_shift in
    own_page t p;
    Bytes.set_uint16_le (Array.unsafe_get t.pages p) off (v land 0xFFFF)
  end
  else write_le t addr 2 (Int64.of_int v)

let read_u32 t addr =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_bytes - 4 then
    Int32.to_int (Bytes.get_int32_le (Array.unsafe_get t.pages (addr lsr page_shift)) off)
    land 0xFFFFFFFF
  else Int64.to_int (read_le t addr 4)

let write_u32 t addr v =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_bytes - 4 then begin
    let p = addr lsr page_shift in
    own_page t p;
    Bytes.set_int32_le (Array.unsafe_get t.pages p) off (Int32.of_int v)
  end
  else write_le t addr 4 (Int64.of_int v)

let read_u64 t addr =
  check t addr 8;
  let off = addr land page_mask in
  if off <= page_bytes - 8 then
    Bytes.get_int64_le (Array.unsafe_get t.pages (addr lsr page_shift)) off
  else read_le t addr 8

let write_u64 t addr v =
  check t addr 8;
  let off = addr land page_mask in
  if off <= page_bytes - 8 then begin
    let p = addr lsr page_shift in
    own_page t p;
    Bytes.set_int64_le (Array.unsafe_get t.pages p) off v
  end
  else write_le t addr 8 v

let read_string t ~addr ~len =
  check t addr len;
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (page_bytes - off) in
    Bytes.blit (Array.unsafe_get t.pages (a lsr page_shift)) off buf !pos n;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string buf

let write_string t ~addr s =
  let len = String.length s in
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let p = a lsr page_shift and off = a land page_mask in
    let n = min (len - !pos) (page_bytes - off) in
    own_page t p;
    Bytes.blit_string s !pos (Array.unsafe_get t.pages p) off n;
    pos := !pos + n
  done

let fill t ~addr ~len byte =
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let p = a lsr page_shift and off = a land page_mask in
    let n = min (len - !pos) (page_bytes - off) in
    own_page t p;
    Bytes.fill (Array.unsafe_get t.pages p) off n byte;
    pos := !pos + n
  done

(* Fault-injection backdoor (roload-chaos): invert one bit of the 64-bit
   word at [addr], bypassing the MMU entirely — the DRAM-disturbance
   model for flips inside read-only (key-protected) frames that no store
   instruction could reach. *)
let flip_bit t ~addr ~bit =
  if bit < 0 || bit > 63 then invalid_arg "Phys_mem.flip_bit";
  write_u64 t addr (Int64.logxor (read_u64 t addr) (Int64.shift_left 1L bit))
