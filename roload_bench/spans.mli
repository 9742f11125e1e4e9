(** In-memory host-time spans recorded around calls into each layer,
    written out once at exit as a Chrome trace plus a per-layer
    self-time table.  A span's layer is its name up to the first ['.']
    (["kernel.run"] belongs to [kernel]). *)

type span = {
  name : string;
  start : float;  (** seconds, host wall clock *)
  stop : float;
  parent : int;  (** index of the enclosing span, or -1 *)
  op : int;  (** the benchmark operation the span served, or -1 *)
}

type t

val create : unit -> t

val with_span : t option -> ?op:int -> string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span.  [None] runs [f]
    untouched, so call sites need no tracing branch. *)

val record : t -> ?op:int -> ?parent:int -> string -> start:float -> stop:float -> int
(** Add an already-measured span (e.g. one delimited by a hook inside a
    layer) and return its index; [parent] defaults to the innermost open
    span. *)

val spans : t -> span array

val self_times : span array -> float array
(** Each span's duration minus the part of it that its children cover
    (overlapping children are counted once). *)

val layer_table : span array -> (string * float * int) list
(** [(layer, self seconds, span count)], largest self time first. *)

val chrome_json : span array -> string
(** The Chrome trace-event format ([ph = "X"] complete events, µs). *)
