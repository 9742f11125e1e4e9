(* Backward liveness dataflow over the IR CFG, producing per-temp live
   intervals on the linearized instruction order (for linear-scan
   allocation) plus the set of positions that are calls. *)

module Ir = Roload_ir.Ir
module IntSet = Set.Make (Int)

type interval = {
  temp : Ir.temp;
  start_pos : int;
  end_pos : int;
  crosses_call : bool;
}

type t = {
  intervals : interval list; (* sorted by start_pos *)
  call_positions : IntSet.t;
  num_positions : int;
}

(* Dense temp sets for the dataflow: temp [t] is bit [t mod w] of word
   [t / w].  Every set of one function has the same length, so the
   dataflow works in place, word by word. *)
let w = Sys.int_size

let set_words ntemps = (ntemps + w - 1) / w
let set_create ntemps = Array.make (set_words ntemps) 0
let set_mem s t = s.(t / w) land (1 lsl (t mod w)) <> 0
let set_add s t = s.(t / w) <- s.(t / w) lor (1 lsl (t mod w))

(* ascending, as [IntSet.iter] *)
let set_iter f s =
  Array.iteri
    (fun i x ->
      if x <> 0 then
        for b = 0 to w - 1 do
          if x land (1 lsl b) <> 0 then f ((i * w) + b)
        done)
    s

(* Linearized positions: blocks in order; each instruction one position;
   the terminator takes one more. *)
let analyze (f : Ir.func) =
  let blocks = Array.of_list f.Ir.f_blocks in
  let nblocks = Array.length blocks in
  let ntemps = f.Ir.f_ntemps in
  let label_index = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.add label_index b.Ir.b_label i) blocks;
  (* positions — starting at 1 so that parameter definitions (position 0)
     precede the first instruction; otherwise a call that happens to be
     the first instruction would share position 0 with the parameter defs
     and parameters live across it would not count as call-crossing *)
  let block_start = Array.make nblocks 0 in
  let pos = ref 1 in
  Array.iteri
    (fun i b ->
      block_start.(i) <- !pos;
      pos := !pos + List.length b.Ir.b_instrs + 1)
    blocks;
  let num_positions = !pos in
  (* block-level use/def; each array of sets is filled in place, since
     [Array.init] would start a long array at a young set, which forces
     a minor collection *)
  let sets () =
    let a = Array.make nblocks [||] in
    Array.iteri (fun i _ -> a.(i) <- set_create ntemps) a;
    a
  in
  let use = sets () and def = sets () in
  Array.iteri
    (fun i b ->
      let u = use.(i) and d = def.(i) in
      let use_t t = if not (set_mem d t) then set_add u t in
      List.iter
        (fun ins ->
          List.iter use_t (Ir.instr_uses ins);
          List.iter (set_add d) (Ir.instr_defs ins))
        b.Ir.b_instrs;
      List.iter use_t (Ir.term_uses b.Ir.b_term))
    blocks;
  let succs =
    Array.map
      (fun b -> List.filter_map (Hashtbl.find_opt label_index) (Ir.successors b.Ir.b_term))
      blocks
  in
  (* fixpoint for live_out: out = ∪ live_in(succ), in = use ∪ (out − def) *)
  let live_in = sets () and live_out = sets () in
  let nwords = set_words ntemps in
  let rec union k acc = function
    | [] -> acc
    | j :: rest -> union k (acc lor live_in.(j).(k)) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = nblocks - 1 downto 0 do
      let out = live_out.(i) and inn = live_in.(i) in
      let u = use.(i) and d = def.(i) in
      for k = 0 to nwords - 1 do
        let o = union k 0 succs.(i) in
        let n = u.(k) lor (o land lnot d.(k)) in
        if o <> out.(k) || n <> inn.(k) then begin
          out.(k) <- o;
          inn.(k) <- n;
          changed := true
        end
      done
    done
  done;
  (* Intervals.  A temp's interval runs from the first to the last
     position at which it is live, so it is enough to touch it where a
     live range can begin or end: at its defs and uses, at a block's
     start when it is live-in and at a block's terminator when it is
     live-out.  The touches come in the order of a backward walk of each
     block, so [order] (a table of the temps in first-touch order) folds
     in the same order as a walk that touches every live temp at every
     position; the allocator's stable sort inherits that order for
     intervals that share a start.  The bucket count decides the fold
     order, so [order] starts at 64 buckets, as that walk's table did. *)
  let first = Array.make ntemps max_int and last = Array.make ntemps (-1) in
  let order = Hashtbl.create 64 in
  let touch t p =
    if last.(t) < 0 then Hashtbl.add order t ();
    if p < first.(t) then first.(t) <- p;
    if p > last.(t) then last.(t) <- p
  in
  let call_positions = ref IntSet.empty in
  Array.iteri
    (fun i b ->
      let term_pos = block_start.(i) + List.length b.Ir.b_instrs in
      set_iter (fun t -> touch t term_pos) live_out.(i);
      List.iter (fun t -> touch t term_pos) (Ir.term_uses b.Ir.b_term);
      List.iteri
        (fun k ins ->
          let p = term_pos - 1 - k in
          if Ir.is_call ins then call_positions := IntSet.add p !call_positions;
          List.iter (fun t -> touch t p) (Ir.instr_defs ins);
          List.iter (fun t -> touch t p) (Ir.instr_uses ins))
        (List.rev b.Ir.b_instrs);
      set_iter (fun t -> touch t block_start.(i)) live_in.(i))
    blocks;
  (* parameters are defined at position 0 *)
  List.iter (fun t -> touch t 0) f.Ir.f_params;
  (* A temp crosses a call iff a call position lies strictly inside its
     interval: a call's own arguments die at the call, and its result is
     defined after it returns.  [next_call.(p)] is the first call after
     position [p]. *)
  let calls = !call_positions in
  let next_call = Array.make (num_positions + 1) max_int in
  IntSet.iter (fun c -> next_call.(c - 1) <- c) calls;
  for p = num_positions - 1 downto 0 do
    if next_call.(p) = max_int then next_call.(p) <- next_call.(p + 1)
  done;
  let temps = Hashtbl.fold (fun t () acc -> t :: acc) order [] in
  let intervals =
    List.rev_map
      (fun t ->
        let s = first.(t) and e = last.(t) in
        { temp = t; start_pos = s; end_pos = e; crosses_call = next_call.(s) < e })
      temps
  in
  let intervals = List.stable_sort (fun a b -> compare a.start_pos b.start_pos) intervals in
  { intervals; call_positions = calls; num_positions }
