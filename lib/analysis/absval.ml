(* Abstract value-set domain for roload-prove.

   An abstract value describes the set of *pointees* a runtime word can
   denote.  It distinguishes non-pointer numbers from pointers and keeps
   a dedicated element for the zero a writable cell holds before its
   first store — both distinctions are what let the elision pass prove a
   hoisted check can never fault where the original would not. *)

type elem =
  | Glob of string  (* address of (or into) the named global *)
  | Frame  (* address into some stack frame (collapsed) *)
  | Fun of string  (* code address of the named function *)
  | Heap  (* address into the heap (collapsed) *)
  | Num  (* non-pointer number written by program code *)
  | Zero_init  (* the zero a writable cell holds before its first store *)

type t = Any | Set of elem list (* sorted, deduplicated, |l| <= max_elems *)

(* Past this width a set is no more useful than Top, and clamping keeps
   the fixpoint iteration count bounded. *)
let max_elems = 64

let bottom = Set []
let any = Any

let normalize l =
  let l = List.sort_uniq compare l in
  if List.length l > max_elems then Any else Set l

let of_elem e = Set [ e ]
let of_list l = normalize l

let join a b =
  match (a, b) with
  | Any, _ | _, Any -> Any
  | Set xs, Set ys -> normalize (xs @ ys)

let equal (a : t) (b : t) = a = b
let is_bottom = function Set [] -> true | Set _ | Any -> false
let elems = function Any -> None | Set l -> Some l
let mem e = function Any -> true | Set l -> List.mem e l

(* Pointer-shaped elements: what survives pointer arithmetic. *)
let is_pointer = function
  | Glob _ | Frame | Fun _ | Heap -> true
  | Num | Zero_init -> false

let pointers = function Any -> None | Set l -> Some (List.filter is_pointer l)
let has_numeric = function Any -> true | Set l -> List.exists (fun e -> not (is_pointer e)) l

(* Abstract pointer arithmetic (add/sub).  The offset side of an
   indexing expression is numeric and must not pollute the pointee set
   — [base + i*8] still points into [base].  A [Num] on a
   pointer-carrying side (an int cast mixed into a pointer value) keeps
   the [Num] marker so downstream consumers stay conservative.
   [Zero_init] on a pointer-carrying side does *not*: zero plus an
   offset is a near-null address whose access faults (the null page is
   never mapped), so — like a direct [Zero_init] dereference — it
   contributes no reachable value. *)
let arith a b =
  match (a, b) with
  | Any, _ | _, Any -> Any
  | Set xs, Set ys ->
    let ps = List.filter is_pointer (xs @ ys) in
    if ps = [] then Set [ Num ]
    else begin
      let poisoned side = List.exists is_pointer side && List.mem Num side in
      let both_sides_pointers = List.exists is_pointer xs && List.exists is_pointer ys in
      if poisoned xs || poisoned ys || both_sides_pointers then normalize (Num :: ps)
      else normalize ps
    end

let elem_to_string = function
  | Glob g -> "@" ^ g
  | Frame -> "<stack>"
  | Fun f -> "&" ^ f
  | Heap -> "<heap>"
  | Num -> "<num>"
  | Zero_init -> "<zero-init>"

let to_string = function
  | Any -> "any"
  | Set [] -> "none"
  | Set l -> "{" ^ String.concat ", " (List.map elem_to_string l) ^ "}"
