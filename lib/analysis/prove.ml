(* roload-prove: whole-program pointee-integrity abstract interpretation.

   A bottom-up fixpoint over the callgraph interprets every function on
   the {Absval} domain against an abstract memory (per-global contents
   for writable globals, one collapsed cell each for the stack and the
   heap) and grows function {Summary}s until nothing changes.  Two
   consumers read the result:

   - the *prover* (this module's diagnostics): a protected site whose
     operand can reach a pointee that is writable — or keyed differently
     from the annotation — across function boundaries is reported with a
     witness path showing how the value got there.  Like the lint
     layers, only *definite* bad elements are reported; Heap / Num /
     unknown stay silent because the dynamic ld.ro check still covers
     them (see the precision ladder in [prove.mli]).
   - *lint layer 2* ({!result.pr_dataflow}): the same sweep flags keyed
     sites whose every known pointee is wrongly keyed, and stores into
     read-only globals: roload-lint's key-consistency checks.
   - the *elision oracle* ({!safe_temp}): a temp whose every reachable
     value is a pointee inside the keyed read-only section of key [k]
     (possibly alongside an implicit zero) admits replacing its keyed
     uses with plain loads fed by one hoisted check — the proof-guided
     optimisation in [Roload_passes.Roload_elide].

   Soundness of the abstract memory rests on two module-wide switches:
   any store through a completely unknown address ("wild store") — which
   could alias every writable cell — disables the elision oracle
   outright, and zero-derived addresses are assumed to fault (the null
   page is never mapped), mirroring {!Absval.arith}. *)

module Ir = Roload_ir.Ir
module D = Diagnostic
module A = Absval
module Json = Roload_util.Json

(* ---------- abstract memory containers & witness origins ---------- *)

type container =
  | Cglob of string
  | Cheap
  | Cstack
  | Cparam of string * int
  | Cret of string

let container_to_string = function
  | Cglob g -> "@" ^ g
  | Cheap -> "<heap>"
  | Cstack -> "<stack>"
  | Cparam (f, i) -> Printf.sprintf "param %d of %s" i f
  | Cret f -> "return of " ^ f

(* First-wins record of how each element reached each container; the
   parent chain threads a value's journey across function boundaries. *)
type origin = { og_desc : string; og_parent : container option }

type env = {
  m : Ir.modul;
  globals : (string, Ir.global) Hashtbl.t;
  funcs : (string, Ir.func) Hashtbl.t;
  summaries : (string, Summary.t) Hashtbl.t;
  glob : (string, A.t ref) Hashtbl.t;  (* writable-global contents *)
  ro : (string, A.t) Hashtbl.t;  (* read-only-global contents (fixed) *)
  heap : A.t ref;
  stack : A.t ref;
  sig_targets : (string, string list) Hashtbl.t;
  origins : (container * A.elem, origin) Hashtbl.t;
  mutable wild_stores : string list;
  mutable changed : bool;
}

let elems_of_init ~writable (g : Ir.global) =
  let zero = if writable then A.Zero_init else A.Num in
  let words =
    List.map
      (function
        | Ir.G_int 0L -> zero
        | Ir.G_int _ -> A.Num
        | Ir.G_func f -> A.Fun f
        | Ir.G_global s -> A.Glob s)
      g.Ir.g_init
  in
  let tail =
    (if g.Ir.g_zero > 0 then [ zero ] else [])
    @ match g.Ir.g_bytes with Some _ -> [ A.Num ] | None -> []
  in
  A.of_list (words @ tail)

(* ---------- section classification ---------- *)

(* Permissions and ROLoad key a global's section will receive, or [None]
   when the section name does not parse (bad `.rodata.key.<N>` suffix). *)
let section_attrs section =
  try Some (Roload_obj.Section.attrs_of_name section)
  with Invalid_argument _ -> None

(* [(section, key)] when the named global lives in read-only,
   non-executable data. *)
let global_ro_attrs (m : Ir.modul) name =
  match Ir.find_global m name with
  | None -> None
  | Some g -> (
    match section_attrs g.Ir.g_section with
    | Some (perms, key) when Roload_mem.Perm.read_only perms -> Some (g.Ir.g_section, key)
    | Some _ | None -> None)

(* The ROLoad key of a global's section when that section is eligible for
   ld.ro (read-only, non-executable); [None] otherwise. *)
let global_roload_key m name = Option.map snd (global_ro_attrs m name)

let global_writable (g : Ir.global) =
  match section_attrs g.Ir.g_section with
  | Some (perms, _) -> not (Roload_mem.Perm.read_only perms)
  | None -> true (* unparsable section: assume the worst *)

let create_env (m : Ir.modul) =
  let env =
    {
      m;
      globals = Hashtbl.create 64;
      funcs = Hashtbl.create 16;
      summaries = Hashtbl.create 16;
      glob = Hashtbl.create 64;
      ro = Hashtbl.create 64;
      (* allocations and fresh frames start zero-filled *)
      heap = ref (A.of_elem A.Zero_init);
      stack = ref (A.of_elem A.Zero_init);
      sig_targets = Hashtbl.create 8;
      origins = Hashtbl.create 64;
      wild_stores = [];
      changed = false;
    }
  in
  List.iter (fun (g : Ir.global) -> Hashtbl.replace env.globals g.Ir.g_name g) m.Ir.m_globals;
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace env.funcs f.Ir.f_name f;
      Hashtbl.replace env.summaries f.Ir.f_name
        (Summary.create ~nparams:(List.length f.Ir.f_params)))
    m.Ir.m_funcs;
  List.iter
    (fun (g : Ir.global) ->
      if global_writable g then
        Hashtbl.replace env.glob g.Ir.g_name (ref (elems_of_init ~writable:true g))
      else Hashtbl.replace env.ro g.Ir.g_name (elems_of_init ~writable:false g))
    m.Ir.m_globals;
  env

let targets_by_sig env sig_id =
  match Hashtbl.find_opt env.sig_targets sig_id with
  | Some l -> l
  | None ->
    let l = Callgraph.targets_by_sig env.m sig_id in
    Hashtbl.replace env.sig_targets sig_id l;
    l

let record_origin env key ~desc ~parent =
  if not (Hashtbl.mem env.origins key) then
    Hashtbl.add env.origins key { og_desc = desc; og_parent = parent }

(* ---------- abstract load / store ---------- *)

let container_contents env = function
  | Cglob g -> (
    match Hashtbl.find_opt env.glob g with
    | Some r -> !r
    | None -> Option.value (Hashtbl.find_opt env.ro g) ~default:A.any)
  | Cstack -> !(env.stack)
  | Cheap -> !(env.heap)
  | Cparam (f, i) -> (
    match Hashtbl.find_opt env.summaries f with
    | Some s when i < Array.length s.Summary.s_params -> s.Summary.s_params.(i)
    | Some _ | None -> A.any)
  | Cret f -> (
    match Hashtbl.find_opt env.summaries f with Some s -> s.Summary.s_ret | None -> A.any)

let deref_elem env = function
  | A.Glob g -> (
    match Hashtbl.find_opt env.glob g with
    | Some r -> !r
    | None -> (
      match Hashtbl.find_opt env.ro g with
      | Some av -> av
      | None -> A.any (* symbol from outside the module *)))
  | A.Frame -> !(env.stack)
  | A.Heap -> !(env.heap)
  | A.Fun _ -> A.of_elem A.Num (* reading code bytes *)
  | A.Num -> A.any (* integer-derived address: unknown cell *)
  | A.Zero_init -> A.bottom (* null dereference faults; no value flows *)

let deref env ~width av =
  match av with
  | A.Any -> A.any
  | A.Set [] -> A.bottom
  | A.Set _ when width = Ir.W8 -> A.of_elem A.Num (* single bytes are never pointers *)
  | A.Set l -> List.fold_left (fun acc e -> A.join acc (deref_elem env e)) A.bottom l

(* Containers an address value can denote, for witness attribution. *)
let containers_of av =
  match A.elems av with
  | None -> []
  | Some l ->
    List.filter_map
      (function
        | A.Glob g -> Some (Cglob g)
        | A.Frame -> Some Cstack
        | A.Heap -> Some Cheap
        | A.Fun _ | A.Num | A.Zero_init -> None)
      l

let join_ref env r av =
  let j = A.join !r av in
  if not (A.equal j !r) then begin
    r := j;
    env.changed <- true
  end

let wild_store env site =
  if not (List.mem site env.wild_stores) then begin
    env.wild_stores <- site :: env.wild_stores;
    env.changed <- true
  end

let store env ~site av_addr av_src ~src_srcs =
  let record_into c =
    match A.elems av_src with
    | None -> ()
    | Some es ->
      List.iter
        (fun e ->
          record_origin env (c, e)
            ~desc:(Printf.sprintf "stored at %s" site)
            ~parent:(List.assoc_opt e src_srcs))
        es
  in
  match av_addr with
  | A.Any -> wild_store env site
  | A.Set l ->
    List.iter
      (fun e ->
        match e with
        | A.Glob g -> (
          match Hashtbl.find_opt env.glob g with
          | Some r ->
            join_ref env r av_src;
            record_into (Cglob g)
          | None -> () (* read-only or foreign global: the write faults *))
        | A.Frame ->
          join_ref env env.stack av_src;
          record_into Cstack
        | A.Heap ->
          join_ref env env.heap av_src;
          record_into Cheap
        | A.Fun _ | A.Zero_init -> () (* faults; nothing written *)
        | A.Num -> wild_store env site (* integer-derived address: could alias anything *))
      l

(* ---------- transfer function ---------- *)

type frame = {
  st : A.t array;  (* per-temp abstract value *)
  srcs : (A.elem * container) list array;  (* witness: where each elem was read from *)
}

let eval (fr : frame) = function
  | Ir.Temp t -> fr.st.(t)
  | Ir.Const 0L -> A.of_elem A.Zero_init
  | Ir.Const _ -> A.of_elem A.Num
  | Ir.Global g -> A.of_elem (A.Glob g)
  | Ir.Func_addr f -> A.of_elem (A.Fun f)

let eval_srcs (fr : frame) = function Ir.Temp t -> fr.srcs.(t) | _ -> []

let bind_args env ~callee ~desc_of avs srcss =
  match Hashtbl.find_opt env.summaries callee with
  | None -> ()
  | Some s ->
    if Summary.join_args s avs then env.changed <- true;
    List.iteri
      (fun i av ->
        match A.elems av with
        | None -> ()
        | Some es ->
          let srcs = match List.nth_opt srcss i with Some l -> l | None -> [] in
          List.iter
            (fun e ->
              record_origin env
                (Cparam (callee, i), e)
                ~desc:(desc_of i) ~parent:(List.assoc_opt e srcs))
            es)
      avs

let summary_ret env callee =
  match Hashtbl.find_opt env.summaries callee with
  | Some s -> s.Summary.s_ret
  | None -> A.any

(* Flow-based indirect-target resolution, widened to the type-based set
   whenever any element of the operand cannot be resolved precisely. *)
let resolve_icall env av sig_id =
  match A.elems av with
  | None -> targets_by_sig env sig_id
  | Some l ->
    let precise = ref [] in
    let fuzzy = ref false in
    List.iter
      (fun e ->
        match e with
        | A.Fun f -> precise := f :: !precise
        | A.Glob g -> (
          match Callgraph.gfpt_target env.m g with
          | Some f -> precise := f :: !precise
          | None -> fuzzy := true)
        | A.Heap | A.Frame | A.Num -> fuzzy := true
        | A.Zero_init -> () (* calling through null faults *))
      l;
    if !fuzzy then List.sort_uniq compare (!precise @ targets_by_sig env sig_id)
    else List.sort_uniq compare !precise

let set_dst fr dst av srcs =
  match dst with
  | None -> ()
  | Some d ->
    fr.st.(d) <- av;
    fr.srcs.(d) <- srcs

let ret_srcs av callee =
  match A.elems av with
  | None -> []
  | Some es -> List.map (fun e -> (e, Cret callee)) es

(* Bind one indirect/virtual call to its resolved targets. *)
let apply_targets env fr dst targets avs srcss ~desc_of =
  let ret = ref A.bottom in
  let bound = ref false in
  List.iter
    (fun t ->
      if Hashtbl.mem env.funcs t then begin
        bound := true;
        bind_args env ~callee:t ~desc_of avs srcss;
        ret := A.join !ret (summary_ret env t)
      end)
    targets;
  if !bound then
    set_dst fr dst !ret (List.concat_map (fun t -> ret_srcs (summary_ret env t) t) targets)
  else set_dst fr dst A.any []

let transfer env fr ~site i =
  match i with
  | Ir.Bin (op, d, a, b) -> (
    match op with
    | Ir.Add | Ir.Sub ->
      fr.st.(d) <- A.arith (eval fr a) (eval fr b);
      fr.srcs.(d) <- eval_srcs fr a @ eval_srcs fr b
    | Ir.Mul | Ir.Div | Ir.Rem | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr | Ir.Shru
    | Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge ->
      fr.st.(d) <- A.of_elem A.Num;
      fr.srcs.(d) <- [])
  | Ir.Load { dst; addr; width; _ } ->
    let av_addr = eval fr addr in
    let loaded = deref env ~width av_addr in
    fr.st.(dst) <- loaded;
    let cs = containers_of av_addr in
    fr.srcs.(dst) <-
      (match A.elems loaded with
      | None -> []
      | Some es ->
        List.filter_map
          (fun e ->
            List.find_opt (fun c -> A.mem e (container_contents env c)) cs
            |> Option.map (fun c -> (e, c)))
          es)
  | Ir.Lea_frame (d, _) ->
    fr.st.(d) <- A.of_elem A.Frame;
    fr.srcs.(d) <- []
  | Ir.Store { src; addr; _ } ->
    store env ~site (eval fr addr) (eval fr src) ~src_srcs:(eval_srcs fr src)
  | Ir.Call { dst; callee; args } ->
    if Hashtbl.mem env.funcs callee then begin
      bind_args env ~callee
        ~desc_of:(fun i -> Printf.sprintf "passed as argument %d at %s" i site)
        (List.map (eval fr) args)
        (List.map (eval_srcs fr) args);
      let r = summary_ret env callee in
      set_dst fr dst r (ret_srcs r callee)
    end
    else if callee = "alloc" then set_dst fr dst (A.of_elem A.Heap) []
    else if List.mem callee Callgraph.builtins then set_dst fr dst (A.of_elem A.Num) []
    else set_dst fr dst A.any []
  | Ir.Call_indirect { dst; callee; args; sig_id; _ } ->
    apply_targets env fr dst
      (resolve_icall env (eval fr callee) sig_id)
      (List.map (eval fr) args)
      (List.map (eval_srcs fr) args)
      ~desc_of:(fun i -> Printf.sprintf "passed as argument %d at %s" i site)
  | Ir.Vcall { dst; obj; args; class_name; slot; _ } ->
    apply_targets env fr dst
      (Callgraph.vcall_targets env.m ~class_name ~slot)
      (eval fr obj :: List.map (eval fr) args)
      (eval_srcs fr obj :: List.map (eval_srcs fr) args)
      ~desc_of:(fun i ->
        if i = 0 then Printf.sprintf "passed as receiver at %s" site
        else Printf.sprintf "passed as argument %d at %s" (i - 1) site)

let transfer_term env fr ~fname ~site t =
  match t with
  | Ir.Ret (Some v) -> (
    let av = eval fr v in
    (match Hashtbl.find_opt env.summaries fname with
    | Some s -> if Summary.join_ret s av then env.changed <- true
    | None -> ());
    match A.elems av with
    | None -> ()
    | Some es ->
      let srcs = eval_srcs fr v in
      List.iter
        (fun e ->
          record_origin env (Cret fname, e)
            ~desc:(Printf.sprintf "returned at %s" site)
            ~parent:(List.assoc_opt e srcs))
        es)
  | Ir.Ret None | Ir.Br _ | Ir.Cbr _ | Ir.Halt -> ()

(* ---------- per-function block fixpoint ---------- *)

let states_equal (a : A.t array) (b : A.t array) =
  let n = Array.length a in
  let rec go i = i >= n || (A.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let param_srcs env (f : Ir.func) (st : A.t array) =
  let srcs = Array.make (Array.length st) [] in
  List.iteri
    (fun i p ->
      match A.elems st.(p) with
      | None -> ()
      | Some es ->
        if p < Array.length srcs then
          srcs.(p) <- List.map (fun e -> (e, Cparam (f.Ir.f_name, i))) es)
    f.Ir.f_params;
  ignore env;
  srcs

let entry_state env (f : Ir.func) =
  let st = Array.make (max f.Ir.f_ntemps 1) A.bottom in
  (match Hashtbl.find_opt env.summaries f.Ir.f_name with
  | None -> ()
  | Some s ->
    List.iteri
      (fun i p ->
        if i < Array.length s.Summary.s_params then st.(p) <- s.Summary.s_params.(i))
      f.Ir.f_params);
  st

(* Iterate one function to a local fixpoint against the current global
   state; returns the stable block-entry states. *)
let analyze_func env (f : Ir.func) =
  let states : (string, A.t array) Hashtbl.t = Hashtbl.create 8 in
  (match f.Ir.f_blocks with
  | [] -> ()
  | entry :: _ ->
    Hashtbl.replace states entry.Ir.b_label (entry_state env f);
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          match Hashtbl.find_opt states b.Ir.b_label with
          | None -> ()
          | Some entry_st ->
            let st = Array.copy entry_st in
            let fr = { st; srcs = param_srcs env f st } in
            let site = Printf.sprintf "%s/%s" f.Ir.f_name b.Ir.b_label in
            List.iter (transfer env fr ~site) b.Ir.b_instrs;
            transfer_term env fr ~fname:f.Ir.f_name ~site b.Ir.b_term;
            List.iter
              (fun succ ->
                match Hashtbl.find_opt states succ with
                | None ->
                  Hashtbl.replace states succ (Array.copy fr.st);
                  changed := true
                | Some old ->
                  let merged = Array.mapi (fun i v -> A.join v fr.st.(i)) old in
                  if not (states_equal merged old) then begin
                    Hashtbl.replace states succ merged;
                    changed := true
                  end)
              (Ir.successors b.Ir.b_term))
        f.Ir.f_blocks
    done);
  states

(* One post-fixpoint sweep over a function: each block visited exactly
   once from its stable entry state, with [observe] fired before every
   instruction. *)
let walk_once env (f : Ir.func) states ~observe =
  List.iter
    (fun b ->
      match Hashtbl.find_opt states b.Ir.b_label with
      | None -> () (* unreachable *)
      | Some entry_st ->
        let st = Array.copy entry_st in
        let fr = { st; srcs = param_srcs env f st } in
        let site = Printf.sprintf "%s/%s" f.Ir.f_name b.Ir.b_label in
        List.iter
          (fun i ->
            observe ~site fr i;
            transfer env fr ~site i)
          b.Ir.b_instrs;
        transfer_term env fr ~fname:f.Ir.f_name ~site b.Ir.b_term)
    f.Ir.f_blocks

(* ---------- results ---------- *)

type result = {
  pr_diags : D.t list;
  pr_dataflow : D.t list;
  pr_rounds : int;
  pr_wild_stores : string list;
  pr_summaries : (string * Summary.t) list;
  pr_temp_values : (string, A.t array) Hashtbl.t;
  pr_module : Ir.modul;
}

let max_rounds = 200

(* witness chain: how [e] reached the container the operand read it from *)
let witness env fr v e =
  let chain = ref [] in
  let seen = Hashtbl.create 8 in
  let rec walk c depth =
    if depth < 8 && not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      match Hashtbl.find_opt env.origins (c, e) with
      | None -> chain := Printf.sprintf "in %s" (container_to_string c) :: !chain
      | Some o -> (
        chain := o.og_desc :: !chain;
        match o.og_parent with Some p -> walk p (depth + 1) | None -> ())
    end
  in
  (match v with
  | Ir.Temp t -> (
    match List.assoc_opt e fr.srcs.(t) with None -> () | Some c -> walk c 0)
  | Ir.Const _ | Ir.Global _ | Ir.Func_addr _ -> ());
  match List.rev !chain with
  | [] -> ""
  | steps -> Printf.sprintf " (witness: %s)" (String.concat " <- " steps)

let check_operand env fr ~add ~site ~what v key =
  match A.elems (eval fr v) with
  | None -> () (* unknown: the dynamic check still covers it *)
  | Some es ->
    List.iter
      (fun e ->
        match e with
        | A.Glob g -> (
          match Hashtbl.find_opt env.globals g with
          | None -> ()
          | Some gl -> (
            if global_writable gl then
              add
                (D.make D.Prove ~code:"prove-writable-pointee" ~site
                   "%s annotated with key %d can reach writable global @%s (section %s)%s"
                   what key g gl.Ir.g_section (witness env fr v e))
            else
              match global_roload_key env.m g with
              | Some k' when k' = key -> ()
              | Some k' ->
                add
                  (D.make D.Prove ~code:"prove-key-mismatch" ~site
                     "%s annotated with key %d can reach @%s which is keyed %d%s" what key g
                     k' (witness env fr v e))
              | None ->
                add
                  (D.make D.Prove ~code:"prove-unkeyed-pointee" ~site
                     "%s annotated with key %d can reach @%s whose section %s carries no usable key%s"
                     what key g gl.Ir.g_section (witness env fr v e))))
        | A.Frame ->
          add
            (D.make D.Prove ~code:"prove-writable-pointee" ~site
               "%s annotated with key %d can reach the (writable) stack%s" what key
               (witness env fr v e))
        | A.Fun f ->
          add
            (D.make D.Prove ~code:"prove-raw-code-pointee" ~site
               "%s annotated with key %d can reach the raw code address of %s — expected a keyed table slot%s"
               what key f (witness env fr v e))
        | A.Heap | A.Num | A.Zero_init ->
          (* dynamically protected; statically neither proven nor
             refuted — stays on the lower rung of the ladder *)
          ())
      es

(* Temps whose value may have been read back from the abstract memory or
   a summary: loads, parameters, call results, and pointer arithmetic on
   them.  Flow-insensitive — a temp is memory-derived when any of its
   definitions is. *)
let memory_derived (f : Ir.func) =
  let derived = Array.make (max f.Ir.f_ntemps 1) false in
  let mark d =
    let fresh = not derived.(d) in
    derived.(d) <- true;
    fresh
  in
  List.iter (fun p -> ignore (mark p)) f.Ir.f_params;
  let from_temp = function Ir.Temp t -> derived.(t) | _ -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            let fresh =
              match i with
              | Ir.Bin ((Ir.Add | Ir.Sub), d, a, b) when from_temp a || from_temp b -> mark d
              | Ir.Load { dst; _ } -> mark dst
              | Ir.Call { dst = Some d; _ }
              | Ir.Call_indirect { dst = Some d; _ }
              | Ir.Vcall { dst = Some d; _ } ->
                mark d
              | Ir.Bin _ | Ir.Lea_frame _ | Ir.Store _ | Ir.Call _ | Ir.Call_indirect _
              | Ir.Vcall _ ->
                false
            in
            if fresh then changed := true)
          b.Ir.b_instrs)
      f.Ir.f_blocks
  done;
  derived

(* Lint layer 2 (key consistency), read off the same fixpoint.  Only a
   known, non-empty pointer set is judged, so every report is a definite
   inconsistency:
   - [key-mismatch]: no pointee of a keyed load or indirect call lives
     in a read-only section with that key, so the ld.ro can only fault;
   - [store-to-rodata]: a store whose address is a read-only global.
   [add ~from_memory] tags a judgement that rests on a memory-derived
   operand: a key-mismatch over-approximated by the abstract memory is
   still definite, but only while that memory is sound (see [run]).
   A store address read back from memory is not judged at all: the
   collapsed, order-blind memory makes "may be read-only" a may-alias
   guess there. *)
let check_dataflow m fr ~derived ~add ~site i =
  let from_memory = function
    | Ir.Temp t -> derived.(t)
    | Ir.Const _ | Ir.Global _ | Ir.Func_addr _ -> false
  in
  let known v = match A.pointers (eval fr v) with None | Some [] -> None | ps -> ps in
  let check_keyed ~what v k =
    match known v with
    | None -> ()
    | Some ps ->
      if not (List.exists (function A.Glob g -> global_roload_key m g = Some k | _ -> false) ps)
      then
        add ~from_memory:(from_memory v)
          (D.make D.Dataflow ~code:"key-mismatch" ~site
             "%s annotated with key %d but its address points to %s — no pointee lives in a read-only section with that key"
             what k (String.concat "|" (List.map A.elem_to_string ps)))
  in
  match i with
  | Ir.Load { addr; md = { Ir.roload_key = Some k; _ }; _ } -> check_keyed ~what:"load" addr k
  | Ir.Call_indirect { callee; md = { Ir.ic_roload_key = Some k; _ }; _ } ->
    check_keyed ~what:"indirect call" callee k
  | Ir.Store { addr; _ } when not (from_memory addr) ->
    List.iter
      (function
        | A.Glob g -> (
          match global_ro_attrs m g with
          | Some (section, key) ->
            add ~from_memory:false
              (D.make D.Dataflow ~code:"store-to-rodata" ~site
                 "store into read-only global @%s (section %s, key %d)" g section key)
          | None -> ())
        | A.Frame | A.Fun _ | A.Heap | A.Num | A.Zero_init -> ())
      (Option.value (known addr) ~default:[])
  | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _ | Ir.Call_indirect _
  | Ir.Vcall _ ->
    ()

let run (m : Ir.modul) =
  let env = create_env m in
  let cg = Callgraph.build m in
  let order = List.concat (Callgraph.bottom_up cg) in
  let rounds = ref 0 in
  let diverged = ref false in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    env.changed <- false;
    List.iter
      (fun name ->
        match Hashtbl.find_opt env.funcs name with
        | Some f -> ignore (analyze_func env f)
        | None -> ())
      order;
    if not env.changed then continue_ := false
    else if !rounds >= max_rounds then begin
      diverged := true;
      continue_ := false
    end
  done;
  (* wild stores recorded so far may be transients of early rounds (a
     store through a parameter that was still bottom); the post-fixpoint
     sweeps below re-run the transfer function from stable states, so
     only stores that are wild at the fixpoint are re-recorded *)
  env.wild_stores <- [];
  (* post-fixpoint sweeps: diagnostics and per-temp value envelopes *)
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let lint = ref [] in
  let add_lint ~from_memory d = lint := (d, from_memory) :: !lint in
  let temp_values = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      let states = analyze_func env f in
      let tmax = entry_state env f in
      let derived = memory_derived f in
      let fold fr = Array.iteri (fun t v -> tmax.(t) <- A.join tmax.(t) v) fr.st in
      walk_once env f states ~observe:(fun ~site fr i ->
          fold fr;
          check_dataflow m fr ~derived ~add:add_lint ~site i;
          match i with
          | Ir.Load { addr; md = { Ir.roload_key = Some k; _ }; _ } ->
            check_operand env fr ~add ~site ~what:"load" addr k
          | Ir.Call_indirect { callee; md = { Ir.ic_roload_key = Some k; _ }; _ } ->
            check_operand env fr ~add ~site ~what:"indirect call" callee k
          | Ir.Vcall { obj; md = { Ir.vc_roload_key = Some k; _ }; _ } ->
            check_operand env fr ~add ~site ~what:"virtual call" obj k
          | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
          | Ir.Call_indirect _ | Ir.Vcall _ ->
            ());
      (* fold the block-exit states too: re-walk folds entry states and
         pre-instruction points; a final fold per block exit is covered
         by the next observe or, for terminator-only effects, here *)
      Hashtbl.iter (fun _ st -> Array.iteri (fun t v -> tmax.(t) <- A.join tmax.(t) v) st) states;
      Hashtbl.replace temp_values f.Ir.f_name tmax)
    m.Ir.m_funcs;
  let diags = List.rev !ds in
  (* memory-derived layer-2 judgements stand only on a sound abstract
     memory: no store at the fixpoint may have gone to an unknown cell,
     and the fixpoint must have been reached *)
  let memory_sound = env.wild_stores = [] && not !diverged in
  let dataflow =
    List.filter_map
      (fun (d, from_memory) -> if from_memory && not memory_sound then None else Some d)
      (List.rev !lint)
  in
  let diags =
    if !diverged then
      D.make D.Prove ~code:"prove-fixpoint-diverged" ~site:("module " ^ m.Ir.m_name)
        "abstract interpretation did not stabilise within %d rounds" max_rounds
      :: diags
    else diags
  in
  {
    pr_diags = diags;
    pr_dataflow = dataflow;
    pr_rounds = !rounds;
    pr_wild_stores = List.rev env.wild_stores;
    pr_summaries =
      List.map
        (fun (f : Ir.func) -> (f.Ir.f_name, Hashtbl.find env.summaries f.Ir.f_name))
        m.Ir.m_funcs;
    pr_temp_values = temp_values;
    pr_module = m;
  }

(* ---------- the elision oracle ---------- *)

let provably_keyed m ~key av =
  match av with
  | A.Any | A.Set [] -> None
  | A.Set l ->
    let nonzero = List.filter (fun e -> e <> A.Zero_init) l in
    if nonzero = [] then None (* provably always zero: leave the fault in place *)
    else if
      List.for_all
        (function A.Glob g -> global_roload_key m g = Some key | _ -> false)
        nonzero
    then Some (if List.mem A.Zero_init l then `Guarded else `Pure)
    else None

let safe_temp r ~func ~temp ~key =
  if r.pr_wild_stores <> [] then None
  else if r.pr_diags <> [] then None
  else
    match Hashtbl.find_opt r.pr_temp_values func with
    | None -> None
    | Some tmax when temp < Array.length tmax -> provably_keyed r.pr_module ~key tmax.(temp)
    | Some _ -> None

(* ---------- rendering ---------- *)

let report_to_string r =
  let b = Buffer.create 256 in
  let plural n = if n = 1 then "" else "s" in
  Buffer.add_string b
    (Printf.sprintf
       "roload-prove: %d function%s, fixpoint in %d round%s%s\n"
       (List.length r.pr_summaries)
       (plural (List.length r.pr_summaries))
       r.pr_rounds (plural r.pr_rounds)
       (match r.pr_wild_stores with
       | [] -> ""
       | l -> Printf.sprintf ", %d wild store%s (elision disabled)" (List.length l)
                (plural (List.length l))));
  List.iter (fun d -> Buffer.add_string b (D.to_string d ^ "\n")) r.pr_diags;
  Buffer.add_string b
    (Printf.sprintf "prove: %d finding%s\n" (List.length r.pr_diags)
       (plural (List.length r.pr_diags)));
  Buffer.contents b

let report_to_json r =
  Json.obj
    [
      ("functions", Json.int (List.length r.pr_summaries));
      ("rounds", Json.int r.pr_rounds);
      ("wild_stores", Json.int (List.length r.pr_wild_stores));
      ("findings", Json.arr (List.map D.to_json r.pr_diags));
      ("count", Json.int (List.length r.pr_diags));
    ]
  ^ "\n"

let exit_code r = if r.pr_diags = [] then 0 else 3
