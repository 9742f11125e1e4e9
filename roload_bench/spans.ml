type span = { name : string; start : float; stop : float; parent : int; op : int }

type t = { mutable items : span array; mutable count : int; mutable open_ : int list }

let create () = { items = [||]; count = 0; open_ = [] }

let push t s =
  if t.count = Array.length t.items then begin
    let grown = Array.make (max 256 (2 * t.count)) s in
    Array.blit t.items 0 grown 0 t.count;
    t.items <- grown
  end;
  t.items.(t.count) <- s;
  t.count <- t.count + 1;
  t.count - 1

let current t = match t.open_ with p :: _ -> p | [] -> -1

let record t ?(op = -1) ?parent name ~start ~stop =
  let parent = match parent with Some p -> p | None -> current t in
  push t { name; start; stop; parent; op }

let with_span t ?op name f =
  match t with
  | None -> f ()
  | Some t ->
    let start = Unix.gettimeofday () in
    let id = record t ?op name ~start ~stop:start in
    t.open_ <- id :: t.open_;
    Fun.protect
      ~finally:(fun () ->
        t.items.(id) <- { (t.items.(id)) with stop = Unix.gettimeofday () };
        t.open_ <- List.tl t.open_)
      f

let spans t = Array.sub t.items 0 t.count

let self_times spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s ->
      if s.parent >= 0 && s.parent < n then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let intervals =
        List.sort compare
          (List.map
             (fun c -> (Float.max s.start spans.(c).start, Float.min s.stop spans.(c).stop))
             children.(i))
      in
      (* length of the union of the (sorted) child intervals *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) intervals
      in
      s.stop -. s.start -. covered)
    spans

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layer_table spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let layer = layer_of s.name in
      let t, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl layer) in
      Hashtbl.replace tbl layer (t +. self.(i), c + 1))
    spans;
  List.sort
    (fun (_, a, _) (_, b, _) -> compare b a)
    (Hashtbl.fold (fun layer (t, c) acc -> (layer, t, c) :: acc) tbl [])

let chrome_json spans =
  let origin = Array.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = Printf.sprintf "%.3f" ((x -. origin) *. 1e6) in
  let b = Buffer.create (64 + (Array.length spans * 120)) in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %s, \
         \"dur\": %.3f, \"args\": {\"op\": %d, \"parent\": %d}}"
        (Roload_util.Json.str s.name)
        (Roload_util.Json.str (layer_of s.name))
        (us s.start)
        ((s.stop -. s.start) *. 1e6)
        s.op s.parent)
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
