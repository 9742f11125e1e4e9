(** Paged little-endian physical memory with copy-on-write snapshots.
    Permission enforcement lives in the MMU, above this layer.

    DRAM is demand-zero: untouched pages all share one immutable zero
    page, so host memory follows the pages a run stores into.  Pages sit
    in a fixed two-level directory (chunks of 128 pages), so snapshots
    and forks copy one pointer per chunk. *)

exception Out_of_range of int

val page_shift : int
val page_bytes : int

type t

type image
(** A frozen memory image.  Pages inside an image are never mutated, so
    an image can be shared read-only across domains and forked from
    concurrently. *)

val create : size:int -> t
(** A zeroed memory of [size] bytes.  It allocates only its directory:
    every page is the shared zero page until first written. *)

val size : t -> int

val snapshot : t -> image
(** Freeze the current contents in O(chunk count).  The live memory keeps
    running; its next store to each frozen page copies that page
    (copy-on-write), so the image stays exact. *)

val fork : image -> t
(** A fresh memory whose contents equal [image], sharing every page with
    it until written — O(chunk count), no bulk allocation. *)

type page_diff = {
  page : int;  (** physical page number *)
  addr : int;  (** physical address of the first differing byte *)
  a_byte : int;
  b_byte : int;
}

val diff_images : image -> image -> page_diff list
(** Page-by-page comparison, ascending by page number.  Chunks and pages
    still physically shared between the two images compare equal by
    pointer, so diffing twin forks of one snapshot is O(chunk count)
    plus the pages either side wrote. *)

val page : t -> int -> len:int -> write:bool -> Bytes.t
(** [page t addr ~len ~write] is the page holding the [len]-byte access
    at [addr]; the access lives at offset [addr land (page_bytes - 1)].
    With [~write:true] the page is first made private (copy-on-write),
    so the caller may write it in place.  Raises {!Out_of_range} like
    the other accessors, and [Invalid_argument] when the access would
    straddle a page (aligned accesses of up to 8 bytes never do).
    Callers must not retain the page: a later snapshot, store, fill or
    {!copy_page} may re-point it. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val read_string : t -> addr:int -> len:int -> string
val write_string : t -> addr:int -> string -> unit
val fill : t -> addr:int -> len:int -> char -> unit
(** A whole page filled with ['\000'] becomes the shared zero page
    again, in O(1) and without allocating. *)

val copy_page : t -> src:int -> dst:int -> unit
(** [copy_page t ~src ~dst] makes physical page number [dst] hold the
    contents of page [src] by sharing it copy-on-write: O(1), and the
    first later store to either page copies it.  Raises {!Out_of_range}
    unless both pages lie wholly inside the memory. *)

val flip_bit : t -> addr:int -> bit:int -> unit
(** Fault-injection backdoor (roload-chaos): invert bit [bit] (0..63) of
    the 64-bit word at [addr], bypassing the MMU — the DRAM-disturbance
    model for flips inside protected read-only frames. *)
