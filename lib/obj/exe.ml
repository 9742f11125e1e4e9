(* Executable images ("RXE" format).  A linked program is a list of
   page-aligned segments, each carrying its permissions and ROLoad page
   key, plus an entry point and the symbol table (kept for the attack
   tooling and debugging).

   A small binary codec makes images saveable to disk so the compiler
   driver and the runner can be separate executables. *)

module Perm = Roload_mem.Perm

type segment = {
  name : string;
  vaddr : int; (* page-aligned *)
  data : string;
  mem_size : int; (* >= String.length data; excess is zero-filled (bss) *)
  perms : Perm.t;
  key : int;
}

type t = {
  entry : int;
  segments : segment list;
  symbols : (string * int) list; (* name -> absolute address *)
}

let page = 4096

let make ~entry ~segments ~symbols =
  List.iter
    (fun s ->
      if s.vaddr land (page - 1) <> 0 then
        invalid_arg (Printf.sprintf "Exe.make: segment %s not page-aligned" s.name);
      if s.mem_size < String.length s.data then
        invalid_arg (Printf.sprintf "Exe.make: segment %s mem_size too small" s.name))
    segments;
  { entry; segments; symbols }

let find_symbol t name = List.assoc_opt name t.symbols

let find_symbol_exn t name =
  match find_symbol t name with
  | Some a -> a
  | None -> invalid_arg ("Exe.find_symbol_exn: " ^ name)

let segment_pages s = (s.mem_size + page - 1) / page

let total_pages t = List.fold_left (fun acc s -> acc + segment_pages s) 0 t.segments

let segment_containing t addr =
  List.find_opt (fun s -> addr >= s.vaddr && addr < s.vaddr + s.mem_size) t.segments

(* ---------- binary codec ---------- *)

let magic = "RXE1"

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let perms_byte p =
  (if p.Perm.r then 1 else 0) lor (if p.Perm.w then 2 else 0) lor if p.Perm.x then 4 else 0

let perms_of_byte v =
  { Perm.r = v land 1 <> 0; w = v land 2 <> 0; x = v land 4 <> 0 }

let to_bytes t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_u32 b t.entry;
  put_u32 b (List.length t.segments);
  List.iter
    (fun s ->
      put_str b s.name;
      put_u32 b s.vaddr;
      put_u32 b s.mem_size;
      put_u32 b (perms_byte s.perms);
      put_u32 b s.key;
      put_str b s.data)
    t.segments;
  put_u32 b (List.length t.symbols);
  List.iter
    (fun (name, addr) ->
      put_str b name;
      put_u32 b addr)
    t.symbols;
  Buffer.contents b

exception Bad_image of string

let of_bytes s =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s then raise (Bad_image "truncated image")
  in
  let get_u32 () =
    need 4;
    let v =
      Char.code s.[!pos]
      lor (Char.code s.[!pos + 1] lsl 8)
      lor (Char.code s.[!pos + 2] lsl 16)
      lor (Char.code s.[!pos + 3] lsl 24)
    in
    pos := !pos + 4;
    v
  in
  let get_str () =
    let n = get_u32 () in
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  need 4;
  if String.sub s 0 4 <> magic then raise (Bad_image "bad magic");
  pos := 4;
  let entry = get_u32 () in
  let nseg = get_u32 () in
  let segments =
    List.init nseg (fun _ ->
        let name = get_str () in
        let vaddr = get_u32 () in
        let mem_size = get_u32 () in
        let perms = perms_of_byte (get_u32 ()) in
        let key = get_u32 () in
        let data = get_str () in
        { name; vaddr; data; mem_size; perms; key })
  in
  let nsym = get_u32 () in
  let symbols =
    List.init nsym (fun _ ->
        let name = get_str () in
        let addr = get_u32 () in
        (name, addr))
  in
  try make ~entry ~segments ~symbols with Invalid_argument msg -> raise (Bad_image msg)

let save t path =
  let oc = open_out_bin path in
  output_string oc (to_bytes t);
  close_out oc

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_bytes s

let summary t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "entry: 0x%x\n" t.entry);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  %-24s 0x%08x..0x%08x %s key=%-4d (%d bytes data)\n" s.name
           s.vaddr (s.vaddr + s.mem_size) (Perm.to_string s.perms) s.key
           (String.length s.data)))
    t.segments;
  Buffer.contents b
