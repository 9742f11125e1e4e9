(** Paged little-endian physical memory with copy-on-write snapshots.
    Permission enforcement lives in the MMU, above this layer. *)

exception Out_of_range of int

val page_shift : int
val page_bytes : int

type t

type image
(** A frozen memory image.  Pages inside an image are never mutated, so
    an image can be shared read-only across domains and forked from
    concurrently. *)

val create : size:int -> t
val size : t -> int

val snapshot : t -> image
(** Freeze the current contents in O(page count).  The live memory keeps
    running; its next store to each frozen page copies that page
    (copy-on-write), so the image stays exact. *)

val restore : t -> image -> unit
(** Reset [t]'s contents to [image] in O(page count), preserving the
    identity of [t] itself.  The image remains valid and reusable. *)

val fork : image -> t
(** A fresh memory whose contents equal [image], sharing every page with
    it until written — O(page count), no bulk allocation. *)

type page_diff = {
  page : int;  (** physical page number *)
  addr : int;  (** physical address of the first differing byte *)
  a_byte : int;
  b_byte : int;
}

val diff_images : image -> image -> page_diff list
(** Page-by-page comparison, ascending by page number.  Pages still
    physically shared between the two images compare equal by pointer,
    so diffing twin forks of one snapshot is O(page count). *)

val page : t -> int -> len:int -> write:bool -> Bytes.t
(** [page t addr ~len ~write] is the page holding the [len]-byte access
    at [addr]; the access lives at offset [addr land (page_bytes - 1)].
    With [~write:true] the page is first made private (copy-on-write),
    so the caller may write it in place.  Raises {!Out_of_range} like
    the other accessors, and [Invalid_argument] when the access would
    straddle a page (aligned accesses of up to 8 bytes never do).
    Callers must not retain the page across a snapshot. *)

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

val flip_bit : t -> addr:int -> bit:int -> unit
(** Fault-injection backdoor (roload-chaos): invert bit [bit] (0..63) of
    the 64-bit word at [addr], bypassing the MMU — the DRAM-disturbance
    model for flips inside protected read-only frames. *)
