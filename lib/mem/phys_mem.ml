(* Paged physical memory with copy-on-write snapshots.  All accesses are
   little-endian.  Out-of-range accesses raise [Out_of_range]; virtual-
   address permission enforcement happens above this layer, in the MMU.

   Memory is a two-level directory of 4 KiB pages: chunks of 128 pages,
   each with a per-page ownership byte, under a directory with a
   per-chunk ownership byte.  A store needs both bytes set ("chunk owned
   and page owned"); otherwise it first copies the chunk (128 pointers)
   and then the page — copy-on-write at both levels.  A snapshot keeps a
   pointer copy of the directory and clears the chunk bytes, so the live
   memory and the image share every chunk and page until the next store
   to each.  Frozen image chunks and pages are never written again,
   which makes an [image] safe to share read-only across domains and
   makes [snapshot] and [fork] O(chunk count).

   DRAM is demand-zero: [create] points every chunk at one shared zero
   chunk whose slots all hold one immutable zero page, so a fresh 64 MiB
   memory allocates a directory and nothing else, and a page exists
   only once something stores into it.  A whole-page fill with zeros
   re-points the page at the zero page, and [copy_page] shares the
   source page with the destination, so a kernel's frame zeroing and
   frame copying cost a pointer store. *)

exception Out_of_range of int

let page_shift = 12
let page_bytes = 1 lsl page_shift
let page_mask = page_bytes - 1
let chunk_shift = 7
let chunk_pages = 1 lsl chunk_shift
let chunk_mask = chunk_pages - 1

type chunk = {
  pages : Bytes.t array;  (* [chunk_pages] slots *)
  owned : Bytes.t;  (* one byte per page; '\001' = the owning [t] may write it in place *)
}

type t = {
  chunks : chunk array;
  c_owned : Bytes.t;  (* one byte per chunk; '\001' = this [t] may mutate the chunk *)
  size : int;
}

type image = { i_chunks : chunk array; i_size : int }

(* Never owned by anyone, so never written. *)
let zero_page = Bytes.make page_bytes '\000'

let zero_chunk =
  { pages = Array.make chunk_pages zero_page; owned = Bytes.make chunk_pages '\000' }

let create ~size =
  if size <= 0 then invalid_arg "Phys_mem.create";
  let npages = (size + page_bytes - 1) / page_bytes in
  let nchunks = (npages + chunk_pages - 1) / chunk_pages in
  { chunks = Array.make nchunks zero_chunk; c_owned = Bytes.make nchunks '\000'; size }

let size t = t.size

let[@inline] check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then raise (Out_of_range addr)

let[@inline] page_of t p =
  Array.unsafe_get (Array.unsafe_get t.chunks (p lsr chunk_shift)).pages (p land chunk_mask)

(* Chunk [c], made private first if it is shared with an image, another
   memory or the zero chunk: a fresh pointer copy whose pages are all
   un-owned. *)
let own_chunk t c =
  let ch = Array.unsafe_get t.chunks c in
  if Bytes.unsafe_get t.c_owned c = '\001' then ch
  else begin
    let ch = { pages = Array.copy ch.pages; owned = Bytes.make chunk_pages '\000' } in
    Array.unsafe_set t.chunks c ch;
    Bytes.unsafe_set t.c_owned c '\001';
    ch
  end

(* Copy-on-write fault: the first store into a page this memory does not
   own copies the chunk (if shared) and then the page, and takes
   ownership of both. *)
let own_page t p =
  let ch = own_chunk t (p lsr chunk_shift) and i = p land chunk_mask in
  if Bytes.unsafe_get ch.owned i <> '\001' then begin
    Array.unsafe_set ch.pages i (Bytes.copy (Array.unsafe_get ch.pages i));
    Bytes.unsafe_set ch.owned i '\001'
  end;
  Array.unsafe_get ch.pages i

(* Page [p] for an in-place store.  The ownership check is inlined into
   every store accessor; only a miss pays the call to [own_page]. *)
let[@inline] writable t p =
  let c = p lsr chunk_shift and i = p land chunk_mask in
  let ch = Array.unsafe_get t.chunks c in
  if Bytes.unsafe_get t.c_owned c = '\001' && Bytes.unsafe_get ch.owned i = '\001' then
    Array.unsafe_get ch.pages i
  else own_page t p

let snapshot t =
  let img = { i_chunks = Array.copy t.chunks; i_size = t.size } in
  Bytes.fill t.c_owned 0 (Bytes.length t.c_owned) '\000';
  img

let fork img =
  {
    chunks = Array.copy img.i_chunks;
    c_owned = Bytes.make (Array.length img.i_chunks) '\000';
    size = img.i_size;
  }

type page_diff = { page : int; addr : int; a_byte : int; b_byte : int }

(* Chunk-by-chunk, then page-by-page comparator.  Chunks and pages still
   physically shared between the two images (the common case for twin
   forks of one snapshot, and for untouched demand-zero DRAM) compare
   equal by pointer in O(1), so diffing two forks costs O(chunk count)
   plus a byte scan of only the pages either side dirtied. *)
let diff_images a b =
  if a.i_size <> b.i_size then invalid_arg "Phys_mem.diff_images: size mismatch";
  let out = ref [] in
  for c = Array.length a.i_chunks - 1 downto 0 do
    let ca = a.i_chunks.(c) and cb = b.i_chunks.(c) in
    if ca != cb then
      for i = chunk_pages - 1 downto 0 do
        let pa = ca.pages.(i) and pb = cb.pages.(i) in
        if pa != pb && not (Bytes.equal pa pb) then begin
          let off = ref 0 in
          while Bytes.unsafe_get pa !off = Bytes.unsafe_get pb !off do
            incr off
          done;
          let p = (c lsl chunk_shift) + i in
          out :=
            {
              page = p;
              addr = (p lsl page_shift) + !off;
              a_byte = Char.code (Bytes.get pa !off);
              b_byte = Char.code (Bytes.get pb !off);
            }
            :: !out
        end
      done
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
  if write then writable t p else page_of t p

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get (page_of t (addr lsr page_shift)) (addr land page_mask))

let write_u8 t addr v =
  check t addr 1;
  Bytes.unsafe_set
    (writable t (addr lsr page_shift))
    (addr land page_mask)
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
  if off <= page_bytes - 2 then Bytes.get_uint16_le (page_of t (addr lsr page_shift)) off
  else Int64.to_int (read_le t addr 2)

let write_u16 t addr v =
  check t addr 2;
  let off = addr land page_mask in
  if off <= page_bytes - 2 then
    Bytes.set_uint16_le (writable t (addr lsr page_shift)) off (v land 0xFFFF)
  else write_le t addr 2 (Int64.of_int v)

let read_u32 t addr =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_bytes - 4 then
    Int32.to_int (Bytes.get_int32_le (page_of t (addr lsr page_shift)) off) land 0xFFFFFFFF
  else Int64.to_int (read_le t addr 4)

let write_u32 t addr v =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_bytes - 4 then
    Bytes.set_int32_le (writable t (addr lsr page_shift)) off (Int32.of_int v)
  else write_le t addr 4 (Int64.of_int v)

let read_u64 t addr =
  check t addr 8;
  let off = addr land page_mask in
  if off <= page_bytes - 8 then Bytes.get_int64_le (page_of t (addr lsr page_shift)) off
  else read_le t addr 8

let write_u64 t addr v =
  check t addr 8;
  let off = addr land page_mask in
  if off <= page_bytes - 8 then Bytes.set_int64_le (writable t (addr lsr page_shift)) off v
  else write_le t addr 8 v

let read_string t ~addr ~len =
  check t addr len;
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (page_bytes - off) in
    Bytes.blit (page_of t (a lsr page_shift)) off buf !pos n;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string buf

let write_string t ~addr s =
  let len = String.length s in
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (page_bytes - off) in
    Bytes.blit_string s !pos (writable t (a lsr page_shift)) off n;
    pos := !pos + n
  done

(* A whole page filled with zeros becomes the zero page again: a pointer
   store, no copy, and no chunk copy when it already is one. *)
let fill t ~addr ~len byte =
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let p = a lsr page_shift and off = a land page_mask in
    let n = min (len - !pos) (page_bytes - off) in
    if n = page_bytes && byte = '\000' then begin
      if page_of t p != zero_page then begin
        let ch = own_chunk t (p lsr chunk_shift) and i = p land chunk_mask in
        Array.unsafe_set ch.pages i zero_page;
        Bytes.unsafe_set ch.owned i '\000'
      end
    end
    else Bytes.fill (writable t p) off n byte;
    pos := !pos + n
  done

(* Share page [src] with page [dst]: both lose ownership, so whichever is
   stored to first copies it. *)
let copy_page t ~src ~dst =
  check t (src lsl page_shift) page_bytes;
  check t (dst lsl page_shift) page_bytes;
  if src <> dst then begin
    let page = page_of t src in
    let sc = src lsr chunk_shift in
    if Bytes.unsafe_get t.c_owned sc = '\001' then
      Bytes.unsafe_set (Array.unsafe_get t.chunks sc).owned (src land chunk_mask) '\000';
    let ch = own_chunk t (dst lsr chunk_shift) and i = dst land chunk_mask in
    Array.unsafe_set ch.pages i page;
    Bytes.unsafe_set ch.owned i '\000'
  end

(* Fault-injection backdoor (roload-chaos): invert one bit of the 64-bit
   word at [addr], bypassing the MMU entirely — the DRAM-disturbance
   model for flips inside read-only (key-protected) frames that no store
   instruction could reach. *)
let flip_bit t ~addr ~bit =
  if bit < 0 || bit > 63 then invalid_arg "Phys_mem.flip_bit";
  write_u64 t addr (Int64.logxor (read_u64 t addr) (Int64.shift_left 1L bit))
