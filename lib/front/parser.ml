(* Recursive-descent parser for MiniC. *)

exception Parse_error of { line : int; message : string }

type state = {
  toks : Lexer.lexed array;
  mutable pos : int;
  mutable typedefs : string list; (* names introduced by typedef / struct / class *)
}

let fail st fmt =
  let line = st.toks.(min st.pos (Array.length st.toks - 1)).Lexer.line in
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let peek st = st.toks.(st.pos).Lexer.tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).Lexer.tok else Lexer.EOF

let line st = st.toks.(st.pos).Lexer.line
let advance st = st.pos <- st.pos + 1

let eat_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p -> advance st
  | _ -> fail st "expected '%s'" p

let accept_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p ->
    advance st;
    true
  | _ -> false

let ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> fail st "expected identifier"

let is_type_start st =
  match peek st with
  | Lexer.KW ("int" | "char" | "void") -> true
  | Lexer.IDENT s -> List.mem s st.typedefs
  | Lexer.INT_LIT _ | Lexer.CHAR_LIT _ | Lexer.STRING_LIT _ | Lexer.KW _
  | Lexer.PUNCT _ | Lexer.EOF ->
    false

let rec parse_type st =
  let base =
    match peek st with
    | Lexer.KW "int" -> advance st; Ast.T_int
    | Lexer.KW "char" -> advance st; Ast.T_char
    | Lexer.KW "void" -> advance st; Ast.T_void
    | Lexer.IDENT s when List.mem s st.typedefs -> advance st; Ast.T_named s
    | _ -> fail st "expected type"
  in
  let rec stars t = if accept_punct st "*" then stars (Ast.T_ptr t) else t in
  stars base

(* ---------- expressions ---------- *)

and parse_expr st = parse_lor st

and parse_lor st =
  let rec go lhs =
    if accept_punct st "||" then
      let rhs = parse_land st in
      go { Ast.e = Ast.Binop (Ast.Lor, lhs, rhs); line = line st }
    else lhs
  in
  go (parse_land st)

and parse_land st =
  let rec go lhs =
    if accept_punct st "&&" then
      let rhs = parse_bor st in
      go { Ast.e = Ast.Binop (Ast.Land, lhs, rhs); line = line st }
    else lhs
  in
  go (parse_bor st)

and parse_bor st =
  let rec go lhs =
    if accept_punct st "|" then
      let rhs = parse_bxor st in
      go { Ast.e = Ast.Binop (Ast.Bor, lhs, rhs); line = line st }
    else lhs
  in
  go (parse_bxor st)

and parse_bxor st =
  let rec go lhs =
    if accept_punct st "^" then
      let rhs = parse_band st in
      go { Ast.e = Ast.Binop (Ast.Bxor, lhs, rhs); line = line st }
    else lhs
  in
  go (parse_band st)

and parse_band st =
  let rec go lhs =
    if accept_punct st "&" then
      let rhs = parse_equality st in
      go { Ast.e = Ast.Binop (Ast.Band, lhs, rhs); line = line st }
    else lhs
  in
  go (parse_equality st)

and parse_equality st =
  let rec go lhs =
    if accept_punct st "==" then
      go { Ast.e = Ast.Binop (Ast.Eq, lhs, parse_relational st); line = line st }
    else if accept_punct st "!=" then
      go { Ast.e = Ast.Binop (Ast.Ne, lhs, parse_relational st); line = line st }
    else lhs
  in
  go (parse_relational st)

and parse_relational st =
  let rec go lhs =
    if accept_punct st "<=" then
      go { Ast.e = Ast.Binop (Ast.Le, lhs, parse_shift st); line = line st }
    else if accept_punct st ">=" then
      go { Ast.e = Ast.Binop (Ast.Ge, lhs, parse_shift st); line = line st }
    else if accept_punct st "<" then
      go { Ast.e = Ast.Binop (Ast.Lt, lhs, parse_shift st); line = line st }
    else if accept_punct st ">" then
      go { Ast.e = Ast.Binop (Ast.Gt, lhs, parse_shift st); line = line st }
    else lhs
  in
  go (parse_shift st)

and parse_shift st =
  let rec go lhs =
    if accept_punct st "<<" then
      go { Ast.e = Ast.Binop (Ast.Shl, lhs, parse_additive st); line = line st }
    else if accept_punct st ">>" then
      go { Ast.e = Ast.Binop (Ast.Shr, lhs, parse_additive st); line = line st }
    else lhs
  in
  go (parse_additive st)

and parse_additive st =
  let rec go lhs =
    if accept_punct st "+" then
      go { Ast.e = Ast.Binop (Ast.Add, lhs, parse_multiplicative st); line = line st }
    else if accept_punct st "-" then
      go { Ast.e = Ast.Binop (Ast.Sub, lhs, parse_multiplicative st); line = line st }
    else lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    if accept_punct st "*" then
      go { Ast.e = Ast.Binop (Ast.Mul, lhs, parse_unary st); line = line st }
    else if accept_punct st "/" then
      go { Ast.e = Ast.Binop (Ast.Div, lhs, parse_unary st); line = line st }
    else if accept_punct st "%" then
      go { Ast.e = Ast.Binop (Ast.Rem, lhs, parse_unary st); line = line st }
    else lhs
  in
  go (parse_unary st)

and parse_unary st =
  let l = line st in
  if accept_punct st "-" then { Ast.e = Ast.Unop (Ast.Neg, parse_unary st); line = l }
  else if accept_punct st "!" then { Ast.e = Ast.Unop (Ast.Not, parse_unary st); line = l }
  else if accept_punct st "~" then { Ast.e = Ast.Unop (Ast.Bnot, parse_unary st); line = l }
  else if accept_punct st "*" then { Ast.e = Ast.Unop (Ast.Deref, parse_unary st); line = l }
  else if accept_punct st "&" then { Ast.e = Ast.Unop (Ast.Addr_of, parse_unary st); line = l }
  else parse_postfix st

and parse_args st =
  eat_punct st "(";
  if accept_punct st ")" then []
  else begin
    let rec go acc =
      let e = parse_expr st in
      if accept_punct st "," then go (e :: acc)
      else begin
        eat_punct st ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_postfix st =
  let rec go e =
    let l = line st in
    match peek st with
    | Lexer.PUNCT "(" ->
      let args = parse_args st in
      go { Ast.e = Ast.Call (e, args); line = l }
    | Lexer.PUNCT "[" ->
      advance st;
      let idx = parse_expr st in
      eat_punct st "]";
      go { Ast.e = Ast.Index (e, idx); line = l }
    | Lexer.PUNCT "->" ->
      advance st;
      let name = ident st in
      if peek st = Lexer.PUNCT "(" then begin
        let args = parse_args st in
        go { Ast.e = Ast.Method_call (e, name, args); line = l }
      end
      else go { Ast.e = Ast.Member (e, name); line = l }
    | _ -> e
  in
  go (parse_primary st)

and parse_primary st =
  let l = line st in
  match peek st with
  | Lexer.INT_LIT v ->
    advance st;
    { Ast.e = Ast.Int_lit v; line = l }
  | Lexer.CHAR_LIT c ->
    advance st;
    { Ast.e = Ast.Char_lit c; line = l }
  | Lexer.STRING_LIT s ->
    advance st;
    { Ast.e = Ast.String_lit s; line = l }
  | Lexer.KW "null" ->
    advance st;
    { Ast.e = Ast.Null; line = l }
  | Lexer.KW "new" ->
    advance st;
    let cls = ident st in
    (* optional empty parens *)
    if peek st = Lexer.PUNCT "(" then begin
      eat_punct st "(";
      eat_punct st ")"
    end;
    { Ast.e = Ast.New cls; line = l }
  | Lexer.KW "sizeof" ->
    advance st;
    eat_punct st "(";
    let t = parse_type st in
    eat_punct st ")";
    { Ast.e = Ast.Sizeof t; line = l }
  | Lexer.IDENT s ->
    advance st;
    { Ast.e = Ast.Ident s; line = l }
  | Lexer.PUNCT "(" ->
    advance st;
    (* cast or parenthesized expression *)
    if is_type_start st then begin
      let t = parse_type st in
      eat_punct st ")";
      let e = parse_unary st in
      { Ast.e = Ast.Cast (t, e); line = l }
    end
    else begin
      let e = parse_expr st in
      eat_punct st ")";
      e
    end
  | _ -> fail st "expected expression"

(* ---------- statements ---------- *)

let rec parse_stmt st =
  let l = line st in
  match peek st with
  | Lexer.PUNCT "{" ->
    advance st;
    let rec go acc =
      if accept_punct st "}" then Ast.Block (List.rev acc) else go (parse_stmt st :: acc)
    in
    go []
  | Lexer.KW "if" ->
    advance st;
    eat_punct st "(";
    let cond = parse_expr st in
    eat_punct st ")";
    let then_ = parse_stmt st in
    if peek st = Lexer.KW "else" then begin
      advance st;
      let else_ = parse_stmt st in
      Ast.If (cond, then_, Some else_)
    end
    else Ast.If (cond, then_, None)
  | Lexer.KW "while" ->
    advance st;
    eat_punct st "(";
    let cond = parse_expr st in
    eat_punct st ")";
    Ast.While (cond, parse_stmt st)
  | Lexer.KW "for" ->
    advance st;
    eat_punct st "(";
    let init = if peek st = Lexer.PUNCT ";" then None else Some (parse_simple_or_decl st) in
    eat_punct st ";";
    let cond = if peek st = Lexer.PUNCT ";" then None else Some (parse_expr st) in
    eat_punct st ";";
    let step = if peek st = Lexer.PUNCT ")" then None else Some (parse_simple st) in
    eat_punct st ")";
    Ast.For (init, cond, step, parse_stmt st)
  | Lexer.KW "return" ->
    advance st;
    if accept_punct st ";" then Ast.Return (None, l)
    else begin
      let e = parse_expr st in
      eat_punct st ";";
      Ast.Return (Some e, l)
    end
  | Lexer.KW "break" ->
    advance st;
    eat_punct st ";";
    Ast.Break l
  | Lexer.KW "continue" ->
    advance st;
    eat_punct st ";";
    Ast.Continue l
  | _ ->
    if is_type_start st && is_decl_lookahead st then begin
      let s = parse_local_decl st in
      eat_punct st ";";
      s
    end
    else begin
      let s = parse_simple st in
      eat_punct st ";";
      s
    end

(* distinguish `T x ...` declarations from expressions starting with a
   typedef'd name (e.g. a call `f(x)` where f is not a type) *)
and is_decl_lookahead st =
  match peek st with
  | Lexer.KW ("int" | "char" | "void") -> true
  | Lexer.IDENT _ -> (
    match peek2 st with
    | Lexer.IDENT _ | Lexer.PUNCT "*" -> true
    | _ -> false)
  | _ -> false

and parse_local_decl st =
  let l = line st in
  let t = parse_type st in
  let name = ident st in
  let array =
    if accept_punct st "[" then begin
      match peek st with
      | Lexer.INT_LIT v ->
        advance st;
        eat_punct st "]";
        Some (Int64.to_int v)
      | _ -> fail st "expected array size"
    end
    else None
  in
  let init = if accept_punct st "=" then Some (parse_expr st) else None in
  Ast.Decl (t, name, array, init, l)

and parse_simple st =
  let l = line st in
  let e = parse_expr st in
  if accept_punct st "=" then Ast.Assign (e, parse_expr st, l)
  else if accept_punct st "+=" then
    Ast.Assign (e, { Ast.e = Ast.Binop (Ast.Add, e, parse_expr st); line = l }, l)
  else if accept_punct st "-=" then
    Ast.Assign (e, { Ast.e = Ast.Binop (Ast.Sub, e, parse_expr st); line = l }, l)
  else Ast.Expr_stmt e

and parse_simple_or_decl st =
  if is_type_start st && is_decl_lookahead st then parse_local_decl st else parse_simple st

(* ---------- top-level ---------- *)

let parse_params st =
  eat_punct st "(";
  if accept_punct st ")" then []
  else begin
    let rec go acc =
      let t = parse_type st in
      let name = ident st in
      if accept_punct st "," then go ((t, name) :: acc)
      else begin
        eat_punct st ")";
        List.rev ((t, name) :: acc)
      end
    in
    go []
  end

let parse_block_stmts st =
  eat_punct st "{";
  let rec go acc = if accept_punct st "}" then List.rev acc else go (parse_stmt st :: acc) in
  go []

let parse_gconst_int st =
  (* integer constant with optional unary minus *)
  let neg = accept_punct st "-" in
  match peek st with
  | Lexer.INT_LIT v ->
    advance st;
    Some (if neg then Int64.neg v else v)
  | _ ->
    if neg then fail st "expected integer after '-'";
    None

let parse_ginit st =
  match peek st with
  | Lexer.INT_LIT _ | Lexer.PUNCT "-" -> (
    match parse_gconst_int st with
    | Some v -> Ast.Gi_int v
    | None -> fail st "expected global initializer")
  | Lexer.STRING_LIT s ->
    advance st;
    Ast.Gi_string s
  | Lexer.PUNCT "{" ->
    advance st;
    let rec go acc =
      let c =
        match peek st with
        | Lexer.INT_LIT _ | Lexer.PUNCT "-" -> (
          match parse_gconst_int st with
          | Some v -> Ast.Gc_int v
          | None -> fail st "expected constant in initializer")
        | Lexer.IDENT f ->
          advance st;
          Ast.Gc_func f
        | _ -> fail st "expected constant in initializer"
      in
      if accept_punct st "," then go (c :: acc)
      else begin
        eat_punct st "}";
        Ast.Gi_list (List.rev (c :: acc))
      end
    in
    go []
  | _ -> fail st "expected global initializer"

let parse_member st =
  let virtual_ = peek st = Lexer.KW "virtual" in
  if virtual_ then advance st;
  let t = parse_type st in
  let name = ident st in
  if peek st = Lexer.PUNCT "(" then begin
    let params = parse_params st in
    let body = parse_block_stmts st in
    Ast.Method { virtual_; ret = t; name; params; body }
  end
  else begin
    if virtual_ then fail st "field cannot be virtual";
    eat_punct st ";";
    Ast.Field (t, name)
  end

let parse_topdecl st =
  match peek st with
  | Lexer.KW "typedef" ->
    advance st;
    let ret = parse_type st in
    eat_punct st "(";
    eat_punct st "*";
    let name = ident st in
    eat_punct st ")";
    eat_punct st "(";
    let params =
      if accept_punct st ")" then []
      else begin
        let rec go acc =
          let t = parse_type st in
          (* allow an optional parameter name *)
          (match peek st with Lexer.IDENT _ -> advance st | _ -> ());
          if accept_punct st "," then go (t :: acc)
          else begin
            eat_punct st ")";
            List.rev (t :: acc)
          end
        in
        go []
      end
    in
    eat_punct st ";";
    st.typedefs <- name :: st.typedefs;
    Ast.Typedef_fptr { name; ret; params }
  | Lexer.KW "struct" ->
    advance st;
    let name = ident st in
    st.typedefs <- name :: st.typedefs;
    eat_punct st "{";
    let rec go acc =
      if accept_punct st "}" then List.rev acc
      else begin
        let t = parse_type st in
        let fname = ident st in
        eat_punct st ";";
        go ((t, fname) :: acc)
      end
    in
    let fields = go [] in
    eat_punct st ";";
    Ast.Struct_def { name; fields }
  | Lexer.KW "class" ->
    advance st;
    let name = ident st in
    st.typedefs <- name :: st.typedefs;
    let parent = if accept_punct st ":" then Some (ident st) else None in
    eat_punct st "{";
    let rec go acc = if accept_punct st "}" then List.rev acc else go (parse_member st :: acc) in
    let members = go [] in
    eat_punct st ";";
    Ast.Class_def { name; parent; members }
  | _ ->
    let t = parse_type st in
    let name = ident st in
    if peek st = Lexer.PUNCT "(" then begin
      let params = parse_params st in
      let body = parse_block_stmts st in
      Ast.Func_def { ret = t; name; params; body }
    end
    else begin
      let array =
        if accept_punct st "[" then begin
          match peek st with
          | Lexer.INT_LIT v ->
            advance st;
            eat_punct st "]";
            Some (Int64.to_int v)
          | _ -> fail st "expected array size"
        end
        else None
      in
      let init = if accept_punct st "=" then Some (parse_ginit st) else None in
      eat_punct st ";";
      Ast.Global_def { ty = t; name; array; init }
    end

(* Statically allocated, so the token array below starts out pointing
   at no young value.  [Array.of_list] would fill it with the first
   (young) token, and a young initial value for an array too large for
   the minor heap forces a minor collection. *)
let eof_sentinel = { Lexer.tok = Lexer.EOF; line = 0 }

let parse source =
  let lexed = Lexer.tokenize source in
  let toks = Array.make (List.length lexed) eof_sentinel in
  List.iteri (fun i tok -> toks.(i) <- tok) lexed;
  let st = { toks; pos = 0; typedefs = [] } in
  let rec go acc = if peek st = Lexer.EOF then List.rev acc else go (parse_topdecl st :: acc) in
  go []
