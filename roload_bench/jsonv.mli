(** A small JSON value type with a reader and a writer — enough for the
    benchmark's own results files and [BENCHMARK.json] (the repository
    has no JSON library). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val of_file : string -> t

val to_string : t -> string
(** Compact rendering.  Numbers keep every significant digit (the
    shortest of [%.15g]/[%.17g] that reads back to the same float);
    integral values print without a fraction, and non-finite ones as
    [null]. *)

val member : string -> t -> t
(** The field of an object, or [Null] when absent or not an object. *)

val to_num : t -> float
(** Raises {!Parse_error} unless the value is a number. *)

val to_str : t -> string
val to_list : t -> t list
val to_assoc : t -> (string * t) list
