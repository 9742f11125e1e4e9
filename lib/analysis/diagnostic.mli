(** Structured diagnostics for roload-lint: each finding names the
    verification layer that produced it, a stable machine-readable code,
    the site it anchors to, and a human-readable message. *)

type layer =
  | Ir_completeness  (** layer 1: IR protection-completeness *)
  | Dataflow  (** layer 2: key consistency / ro-store lint, read off {!Prove}'s fixpoint *)
  | Machine_check  (** layer 3: disassembly & loader cross-check *)
  | Prove  (** whole-program interprocedural prover (roload-prove) *)

val layer_name : layer -> string
(** ["ir"], ["dataflow"], ["machine"] or ["prove"]. *)

type t = { layer : layer; code : string; site : string; message : string }

val make :
  layer -> code:string -> site:string -> ('a, unit, string, t) format4 -> 'a
(** [make layer ~code ~site fmt ...] builds a finding with a formatted
    message. *)

val to_string : t -> string
(** [[layer] code at site: message]. *)

val to_json : t -> string

val report_to_string : t list -> string
(** One finding per line plus a per-layer summary; ["lint: 0 findings\n"]
    on a clean run. *)

val report_to_json : t list -> string
(** [{"findings":[...],"count":n}] with a trailing newline. *)
