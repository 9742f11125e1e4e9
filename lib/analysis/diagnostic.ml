(* Structured diagnostics for roload-lint.

   A finding names the verification layer that produced it (the three
   layers of the static verifier: IR protection-completeness, the
   key-consistency dataflow, and the machine-level cross-check), a stable
   machine-readable code, the site it anchors to, and a human message.
   Reports render either as text (one finding per line plus a summary) or
   as JSON for tooling. *)

type layer = Ir_completeness | Dataflow | Machine_check | Prove

let layer_name = function
  | Ir_completeness -> "ir"
  | Dataflow -> "dataflow"
  | Machine_check -> "machine"
  | Prove -> "prove"

type t = {
  layer : layer;
  code : string; (* stable slug, e.g. "unannotated-icall" *)
  site : string; (* e.g. "main/entry" or "segment rodata.key.2" *)
  message : string;
}

let make layer ~code ~site fmt =
  Printf.ksprintf (fun message -> { layer; code; site; message }) fmt

let to_string d =
  Printf.sprintf "[%s] %s at %s: %s" (layer_name d.layer) d.code d.site d.message

(* ---------- report rendering ---------- *)

let report_to_string ds =
  match ds with
  | [] -> "lint: 0 findings\n"
  | _ ->
    let b = Buffer.create 256 in
    List.iter (fun d -> Buffer.add_string b (to_string d ^ "\n")) ds;
    let count l = List.length (List.filter (fun d -> d.layer = l) ds) in
    Buffer.add_string b
      (Printf.sprintf "lint: %d finding%s (ir: %d, dataflow: %d, machine: %d, prove: %d)\n"
         (List.length ds)
         (if List.length ds = 1 then "" else "s")
         (count Ir_completeness) (count Dataflow) (count Machine_check) (count Prove));
    Buffer.contents b

(* JSON escaping is shared with the metrics/bench writers (PR 4's
   [Roload_util.Json]) so lint JSON and metrics JSON escape identically. *)
let json_escape = Roload_util.Json.escape

let to_json d =
  Printf.sprintf {|{"layer":"%s","code":"%s","site":"%s","message":"%s"}|}
    (layer_name d.layer) (json_escape d.code) (json_escape d.site)
    (json_escape d.message)

let report_to_json ds =
  Printf.sprintf {|{"findings":[%s],"count":%d}|}
    (String.concat "," (List.map to_json ds))
    (List.length ds)
  ^ "\n"
