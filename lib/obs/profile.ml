(* The hot-block profiler: per-block entry/cycle/instruction attribution
   collected by the traced engine when profiling is enabled.

   The machine layer owns the accounting (it knows block boundaries and
   the cycle counter); this module is the presentation half — ranking by
   cycles and rendering the top-N table with each block's disassembly,
   which the machine supplies as pre-rendered lines so this library stays
   below the ISA. *)

type block = {
  pa : int; (* physical address of the block's first instruction *)
  entries : int;
  cycles : int64;
  instructions : int64;
  disasm : string list;
}

let top ?(n = 10) blocks =
  let sorted =
    List.sort
      (fun a b ->
        match Int64.compare b.cycles a.cycles with
        | 0 -> compare a.pa b.pa
        | c -> c)
      blocks
  in
  List.filteri (fun i _ -> i < n) sorted

let render ?(n = 10) blocks =
  let b = Buffer.create 2048 in
  let total_cycles =
    List.fold_left (fun acc blk -> Int64.add acc blk.cycles) 0L blocks
  in
  Buffer.add_string b
    (Printf.sprintf "hot blocks: top %d of %d by cycles\n"
       (min n (List.length blocks))
       (List.length blocks));
  Buffer.add_string b
    "  rank         pa    entries       cycles        insts  cyc%\n";
  List.iteri
    (fun i blk ->
      let pct =
        if Int64.equal total_cycles 0L then 0.
        else 100. *. Int64.to_float blk.cycles /. Int64.to_float total_cycles
      in
      Buffer.add_string b
        (Printf.sprintf "  %4d  0x%08x  %9d  %11Ld  %11Ld  %4.1f\n" (i + 1)
           blk.pa blk.entries blk.cycles blk.instructions pct);
      List.iter
        (fun line -> Buffer.add_string b (Printf.sprintf "          %s\n" line))
        blk.disasm)
    (top ~n blocks);
  Buffer.contents b
