open Parsetree
module SSet = Set.Make (String)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

type file_unit = {
  fu_path : string;
  fu_ast : Parsetree.structure;
  fu_sim_pragma : bool;
}

let rule_names =
  [
    "determinism";
    "lock-paths";
    "san-release-order";
    "counter-ownership";
    "domain-shared-state";
    "suppression";
  ]

(* ------------------------------------------------------------------ *)
(* Scope classification.  Path-scoped rules apply to the simulated     *)
(* world only: the harness/bin layer legitimately reads clocks, files  *)
(* and argv.  The pragma lets the fixture corpus opt in from test/.    *)
(* ------------------------------------------------------------------ *)

let sim_libs =
  [
    "sim";
    "mem";
    "htm";
    "sync";
    "ccm";
    "bptree";
    "eunomia";
    "masstree";
    "fault";
    "san";
    "dura";
  ]

(* Libraries that actually take simulated locks.  lib/san is excluded:
   its [acquire]/[release] are the race checker's *event handlers* for
   lock events, not lock operations. *)
let lock_libs = [ "sync"; "ccm"; "htm"; "bptree"; "eunomia"; "masstree" ]

let lib_of path =
  let rec go = function
    | "lib" :: d :: _ :: _ -> Some d
    | _ :: rest -> go rest
    | [] -> None
  in
  go (String.split_on_char '/' path)

let in_sim_scope fu =
  fu.fu_sim_pragma
  || match lib_of fu.fu_path with Some d -> List.mem d sim_libs | None -> false

let in_lock_scope fu =
  fu.fu_sim_pragma
  ||
  match lib_of fu.fu_path with Some d -> List.mem d lock_libs | None -> false

let in_counter_scope fu = fu.fu_sim_pragma || lib_of fu.fu_path <> None

(* ------------------------------------------------------------------ *)
(* Small AST helpers                                                   *)
(* ------------------------------------------------------------------ *)

let parts_of_lid lid = try Longident.flatten lid with _ -> []

let parts_of_fn e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> parts_of_lid txt
  | _ -> []

let strip_stdlib = function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | p -> p

let last_part = function
  | [] -> None
  | l -> Some (List.nth l (List.length l - 1))

let cnum e = e.pexp_loc.Location.loc_start.Lexing.pos_cnum

let mk fu loc rule msg =
  let p = loc.Location.loc_start in
  {
    file = fu.fu_path;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    msg;
  }

let rec is_fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, b) -> is_fun_literal b
  | _ -> false

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

let iter_exprs f ast =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it ast

let iter_exprs_in_expr f e0 =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e0

(* ------------------------------------------------------------------ *)
(* Rule: determinism                                                   *)
(* ------------------------------------------------------------------ *)

(* Record labels that are mutable, or whose declared type is a mutable
   container: comparing through such a field is the syntactic evidence
   we require before flagging a polymorphic compare (bare [compare] on
   immutable ints is pervasive and fine). *)
let mutable_labels ast =
  let labels = ref SSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
              (* Only container-*typed* labels: a [mutable] scalar field
                 holds an immutable value, which is fine to compare. *)
              List.iter
                (fun ld ->
                  let container =
                    match ld.pld_type.ptyp_desc with
                    | Ptyp_constr ({ txt; _ }, _) -> (
                        match strip_stdlib (parts_of_lid txt) with
                        | [ "array" ] | [ "ref" ] | [ "bytes" ]
                        | [ "Bytes"; "t" ] | [ "Buffer"; "t" ]
                        | "Hashtbl" :: _ | "Queue" :: _ | "Stack" :: _ ->
                            true
                        | _ -> false)
                    | _ -> false
                  in
                  if container then labels := SSet.add ld.pld_name.txt !labels)
                lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  it.structure it ast;
  !labels

let det_forbidden ~is_rng parts =
  match strip_stdlib parts with
  | "Unix" :: _ ->
      Some "Unix.* reads OS state; simulated time comes from Machine.clock"
  | "Random" :: _ when not is_rng ->
      Some "Random.* is ambient unseeded state; draw from Euno_sim.Rng"
  | [ "Sys"; "time" ] ->
      Some "Sys.time reads the wall clock; use Machine.clock / Api.clock"
  | [ "Obj"; "magic" ] ->
      Some "Obj.magic defeats both the type system and the determinism audit"
  | _ -> None

let poly_op parts =
  match strip_stdlib parts with
  | [ "compare" ] -> Some "compare"
  | [ "=" ] -> Some "( = )"
  | [ "<>" ] -> Some "( <> )"
  | [ "Hashtbl"; "hash" ] -> Some "Hashtbl.hash"
  | _ -> None

(* Functions whose *result* is a fresh mutable container.  Element reads
   (Array.get — what [a.(i)] desugars to — length, etc.) return values,
   which are fine to compare. *)
let returns_container parts =
  match strip_stdlib parts with
  | [ "ref" ] -> true
  | [ "Array";
      ( "make" | "create_float" | "init" | "make_matrix" | "append"
      | "concat" | "sub" | "copy" | "of_list" | "of_seq" | "map" | "mapi" )
    ] ->
      true
  | [ "Bytes";
      ("make" | "init" | "create" | "copy" | "of_string" | "sub" | "cat"
      | "concat" | "empty")
    ] ->
      true
  | ("Hashtbl" | "Queue" | "Stack" | "Buffer") :: [ "create" ] -> true
  | _ -> false

let rec mutable_evidence labels e =
  match e.pexp_desc with
  | Pexp_array _ -> true
  | Pexp_field (_, { txt; _ }) -> (
      match last_part (parts_of_lid txt) with
      | Some n -> SSet.mem n labels
      | None -> false)
  | Pexp_apply (f, _) -> returns_container (parts_of_fn f)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> mutable_evidence labels e
  | _ -> false

let rule_determinism fu acc =
  if not (in_sim_scope fu) then acc
  else begin
    let is_rng = Filename.basename fu.fu_path = "rng.ml" in
    let labels = mutable_labels fu.fu_ast in
    let acc = ref acc in
    iter_exprs
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match det_forbidden ~is_rng (parts_of_lid txt) with
            | Some why ->
                acc :=
                  mk fu e.pexp_loc "determinism"
                    (Printf.sprintf "%s: %s"
                       (String.concat "." (parts_of_lid txt))
                       why)
                  :: !acc
            | None -> ())
        | Pexp_apply (f, args) -> (
            match poly_op (parts_of_fn f) with
            | Some op
              when List.exists
                     (fun (_, a) -> mutable_evidence labels a)
                     args ->
                acc :=
                  mk fu e.pexp_loc "determinism"
                    (Printf.sprintf
                       "polymorphic %s applied to a mutable structure: \
                        physical state leaks into comparison order; compare \
                        a projection of immutable fields instead"
                       op)
                  :: !acc
            | _ -> ())
        | _ -> ())
      fu.fu_ast;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Scope extraction (shared by lock-paths and san-release-order).      *)
(* A scope is one function body: analysis never crosses into a nested  *)
(* [fun]/[function] literal, which is its own scope.                   *)
(* ------------------------------------------------------------------ *)

let rec strip_funs e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) -> strip_funs b
  | _ -> e

let scopes_of ast =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add e =
    let key =
      (e.pexp_loc.Location.loc_start.Lexing.pos_cnum,
       e.pexp_loc.Location.loc_end.Lexing.pos_cnum)
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := e :: !out
    end
  in
  let consider e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_newtype _ ->
        let inner = strip_funs e in
        (* [function]-cases are added when the iterator reaches them *)
        (match inner.pexp_desc with Pexp_function _ -> () | _ -> add inner)
    | Pexp_function cases ->
        List.iter
          (fun c ->
            let inner = strip_funs c.pc_rhs in
            match inner.pexp_desc with
            | Pexp_function _ -> ()
            | _ -> add inner)
          cases
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          consider e;
          Ast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self si ->
          (match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  if not (is_fun_literal vb.pvb_expr) then add vb.pvb_expr)
                vbs
          | Pstr_eval (e, _) -> if not (is_fun_literal e) then add e
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si);
    }
  in
  it.structure it ast;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Rule: lock-paths                                                    *)
(* ------------------------------------------------------------------ *)

let acq_names = [ "acquire"; "acquire_bounded"; "lock_slot"; "lock_node"; "write_begin" ]

let rel_base =
  [ "release"; "unlock"; "unlock_slot"; "unlock_node"; "write_end" ]

(* File-local release closure: extend the release vocabulary with every
   let-bound function whose body (transitively) calls a release — the
   [let leave () = Spinlock.release ...] idiom in lib/htm. *)
let rel_closure ast =
  let bindings = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> bindings := (txt, vb.pvb_expr) :: !bindings
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it ast;
  let rels = ref (SSet.of_list rel_base) in
  let contains_rel body =
    let found = ref false in
    iter_exprs_in_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_apply (f, _) -> (
            match last_part (parts_of_fn f) with
            | Some n when SSet.mem n !rels -> found := true
            | _ -> ())
        | _ -> ())
      body;
    !found
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n, body) ->
        if (not (SSet.mem n !rels)) && contains_rel body then begin
          rels := SSet.add n !rels;
          changed := true
        end)
      !bindings
  done;
  !rels

(* Calls that cannot raise inside a held region under the simulator's
   fault model: the Api primitives (except [alloc], which direct
   injectors may fail — see lib/fault/plan.mli), backoff, sanitizer
   gating, and a handful of pure stdlib one-worders/operators.
   Everything else — including local closures and explicit raises — is
   treated as a potential exception source. *)
let safe_call parts =
  match strip_stdlib parts with
  | [] -> false
  | [ "Api"; "alloc" ] -> false
  | "Api" :: _ | "Backoff" :: _ | "Sev" :: _ -> true
  | [ ("ignore" | "not" | "incr" | "decr" | "ref" | "min" | "max" | "fst"
      | "snd" | "succ" | "pred" | "abs") ] ->
      true
  | [ op ] ->
      (* operators: + - land lsl etc. never raise (/ and mod can, on
         zero — accepted as out of scope for this lint) *)
      String.length op > 0
      &&
      let c = op.[0] in
      not ((c >= 'a' && c <= 'z') || c = '_')
  | _ -> false

type acq_site = {
  a_loc : Location.t;
  a_name : string;
  a_cnum : int;
  a_cond : bool;  (** acquire sits under a branch/match arm *)
  a_k : bool;  (** continuation guarantees a release on every value path *)
}

let analyze_lock_scope ~rels fu scope acc =
  let acqs = ref [] in
  let rel_after = ref [] in
  let risky = ref [] in
  let handler_rel = ref false in
  let value_cases cs = List.filter (fun c -> not (is_exception_case c)) cs in
  let exn_cases cs = List.filter is_exception_case cs in
  (* [g e]: evaluating [e] to a value guarantees a release call. *)
  let rec g e =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match last_part (parts_of_fn f) with
        | Some n when SSet.mem n rels -> true
        | _ ->
            List.exists (fun (_, a) -> (not (is_fun_literal a)) && g a) args)
    | Pexp_sequence (a, b) -> g a || g b
    | Pexp_let (_, vbs, body) ->
        List.exists
          (fun vb -> (not (is_fun_literal vb.pvb_expr)) && g vb.pvb_expr)
          vbs
        || g body
    | Pexp_ifthenelse (c, t, eo) ->
        g c || (g t && match eo with Some e -> g e | None -> false)
    | Pexp_match (sc, cases) ->
        g sc
        ||
        let vcs = value_cases cases in
        vcs <> [] && List.for_all (fun c -> g c.pc_rhs) vcs
    | Pexp_try (b, _) -> g b
    | Pexp_constraint (e, _) | Pexp_open (_, e) -> g e
    | _ -> false
  in
  let rec scan e ~k ~cond ~in_handler =
    let sub ?(k = k) ?(cond = cond) ?(in_handler = in_handler) e =
      scan e ~k ~cond ~in_handler
    in
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> ()
    | Pexp_apply (f, args) ->
        let parts = parts_of_fn f in
        (match last_part parts with
        | Some n when SSet.mem n rels ->
            rel_after := cnum e :: !rel_after;
            if in_handler then handler_rel := true
        | Some n when List.mem n acq_names ->
            acqs :=
              { a_loc = e.pexp_loc; a_name = n; a_cnum = cnum e; a_cond = cond; a_k = k }
              :: !acqs
        | _ -> if (not in_handler) && not (safe_call parts) then risky := cnum e :: !risky);
        List.iter (fun (_, a) -> if not (is_fun_literal a) then sub a) args
    | Pexp_sequence (a, b) ->
        sub ~k:(g b || k) a;
        sub b
    | Pexp_let (_, vbs, body) ->
        let kb = g body || k in
        List.iter
          (fun vb -> if not (is_fun_literal vb.pvb_expr) then sub ~k:kb vb.pvb_expr)
          vbs;
        sub body
    | Pexp_ifthenelse (c, t, eo) ->
        let kb = (g t && match eo with Some e -> g e | None -> false) || k in
        sub ~k:kb c;
        sub ~cond:true t;
        Option.iter (fun e -> sub ~cond:true e) eo
    | Pexp_match (sc, cases) ->
        let vcs = value_cases cases and ecs = exn_cases cases in
        let km = (vcs <> [] && List.for_all (fun c -> g c.pc_rhs) vcs) || k in
        sub ~k:km sc;
        List.iter (fun c -> sub ~cond:true c.pc_rhs) vcs;
        List.iter (fun c -> sub ~cond:true ~in_handler:true c.pc_rhs) ecs
    | Pexp_try (b, cases) ->
        sub b;
        List.iter (fun c -> sub ~cond:true ~in_handler:true c.pc_rhs) cases
    | Pexp_while (c, b) ->
        sub c;
        sub ~cond:true b
    | Pexp_for (_, a, b, _, body) ->
        sub a;
        sub b;
        sub ~cond:true body
    | Pexp_assert a ->
        if not in_handler then risky := cnum e :: !risky;
        sub a
    | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_letexception (_, e) ->
        sub e
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_field (e, _)
      ->
        sub e
    | Pexp_setfield (a, _, b) ->
        sub a;
        sub b
    | Pexp_tuple es | Pexp_array es -> List.iter sub es
    | Pexp_record (fields, base) ->
        List.iter (fun (_, e) -> sub e) fields;
        Option.iter sub base
    | Pexp_letmodule (_, _, e) -> sub e
    | _ -> ()
  in
  scan scope ~k:false ~cond:false ~in_handler:false;
  List.fold_left
    (fun acc a ->
      let acc =
        if (not a.a_cond) && not a.a_k then
          mk fu a.a_loc "lock-paths"
            (Printf.sprintf
               "`%s` here is not matched by a release on every following \
                value path of this function (a branch can exit while \
                holding the lock)"
               a.a_name)
          :: acc
        else if a.a_cond && not (List.exists (fun c -> c > a.a_cnum) !rel_after)
        then
          mk fu a.a_loc "lock-paths"
            (Printf.sprintf
               "conditional `%s` has no release call anywhere after it in \
                this function"
               a.a_name)
          :: acc
        else acc
      in
      if
        List.exists (fun c -> c > a.a_cnum) !risky && not !handler_rel
      then
        mk fu a.a_loc "lock-paths"
          (Printf.sprintf
             "no exception-path release: calls after this `%s` can raise, \
              but no handler in this function releases the lock (the PR 2 \
              lock-leak shape)"
             a.a_name)
        :: acc
      else acc)
    acc (List.rev !acqs)

let rule_lock_paths fu acc =
  if not (in_lock_scope fu) then acc
  else begin
    let rels = rel_closure fu.fu_ast in
    List.fold_left
      (fun acc scope -> analyze_lock_scope ~rels fu scope acc)
      acc (scopes_of fu.fu_ast)
  end

(* ------------------------------------------------------------------ *)
(* Rule: san-release-order                                             *)
(* ------------------------------------------------------------------ *)

let store_names = [ "set_bit"; "clear_bit" ]

let is_store_call parts =
  match strip_stdlib parts with
  | [ "Api"; ("write" | "untracked_write" | "cas" | "faa") ]
  | [ "Euno_sim"; "Api"; ("write" | "untracked_write" | "cas" | "faa") ] ->
      true
  | p -> ( match last_part p with Some n -> List.mem n store_names | None -> false)

let contains_release_construct e0 =
  let found = ref false in
  iter_exprs_in_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_construct ({ txt; _ }, _) -> (
          match last_part (parts_of_lid txt) with
          | Some "Release" -> found := true
          | _ -> ())
      | _ -> ())
    e0;
  !found

let analyze_san_scope fu scope acc =
  let stores = ref [] in
  let notes = ref [] in
  let rec walk e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> ()
    | Pexp_apply (f, args) ->
        let parts = parts_of_fn f in
        (if is_store_call parts then stores := cnum e :: !stores
         else
           match last_part parts with
           | Some "san_note"
             when List.exists (fun (_, a) -> contains_release_construct a) args
             ->
               notes := (e.pexp_loc, cnum e) :: !notes
           | _ -> ());
        List.iter (fun (_, a) -> if not (is_fun_literal a) then walk a) args
    | _ ->
        (* walk children without crossing function literals *)
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e -> walk e);
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  walk scope;
  List.fold_left
    (fun acc (loc, nc) ->
      if List.exists (fun sc -> sc < nc) !stores then
        mk fu loc "san-release-order"
          "Release announced after a store in the same function: the \
           sanitizer must see the release note before the unlocking store \
           (PR 4's ordering rule)"
        :: acc
      else acc)
    acc (List.rev !notes)

let rule_san_order fu acc =
  if not (in_sim_scope fu) then acc
  else
    List.fold_left
      (fun acc scope -> analyze_san_scope fu scope acc)
      acc (scopes_of fu.fu_ast)

(* ------------------------------------------------------------------ *)
(* Rule: counter-ownership                                             *)
(* ------------------------------------------------------------------ *)

type counter_decl = {
  cd_file : string;
  cd_name : string;
  cd_index : int;
  cd_loc : Location.t;
  cd_registered : bool;
}

let is_api_count parts =
  match strip_stdlib parts with
  | [ "Api"; "count" ] | [ "Euno_sim"; "Api"; "count" ] -> true
  | _ -> false

let int_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

let counter_decls fu =
  let registered = ref false in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
          if
            List.exists
              (fun p -> p = "register_user_counters")
              (parts_of_lid txt)
          then registered := true
      | _ -> ())
    fu.fu_ast;
  let decls = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some "Counter", Pmod_structure items ->
              List.iter
                (fun si ->
                  match si.pstr_desc with
                  | Pstr_value (_, vbs) ->
                      List.iter
                        (fun vb ->
                          match (vb.pvb_pat.ppat_desc, int_literal vb.pvb_expr)
                          with
                          | Ppat_var { txt; _ }, Some idx ->
                              decls :=
                                {
                                  cd_file = fu.fu_path;
                                  cd_name = txt;
                                  cd_index = idx;
                                  cd_loc = vb.pvb_loc;
                                  cd_registered = false;
                                }
                                :: !decls
                          | _ -> ())
                        vbs
                  | _ -> ())
                items
          | _ -> ());
          Ast_iterator.default_iterator.module_binding self mb);
    }
  in
  it.structure it fu.fu_ast;
  List.rev_map (fun d -> { d with cd_registered = !registered }) !decls

let rule_counters files acc =
  let in_scope = List.filter in_counter_scope files in
  (* literal indices at call sites *)
  let acc =
    List.fold_left
      (fun acc fu ->
        let hits = ref [] in
        iter_exprs
          (fun e ->
            match e.pexp_desc with
            | Pexp_apply (f, args) when is_api_count (parts_of_fn f) -> (
                match
                  List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args
                with
                | Some (_, idx_e) -> (
                    match int_literal idx_e with
                    | Some n ->
                        hits :=
                          mk fu e.pexp_loc "counter-ownership"
                            (Printf.sprintf
                               "literal user-counter index %d passed to \
                                Api.count; use the owning module's Counter \
                                names so the registry stays the single \
                                source of truth"
                               n)
                          :: !hits
                    | None -> ())
                | None -> ())
            | _ -> ())
          fu.fu_ast;
        List.rev_append !hits acc)
      acc in_scope
  in
  (* Counter modules: must register, and indices must not collide *)
  let decls = List.concat_map counter_decls in_scope in
  let acc =
    List.fold_left
      (fun acc d ->
        if not d.cd_registered then
          mk
            (List.find (fun fu -> fu.fu_path = d.cd_file) in_scope)
            d.cd_loc "counter-ownership"
            (Printf.sprintf
               "Counter.%s pins user-counter index %d but this file never \
                calls Machine.register_user_counters; only the registering \
                owner may pin indices"
               d.cd_name d.cd_index)
          :: acc
        else acc)
      acc decls
  in
  let registered = List.filter (fun d -> d.cd_registered) decls in
  List.fold_left
    (fun acc d ->
      let claimants =
        List.sort_uniq compare
          (List.filter_map
             (fun d' ->
               if d'.cd_index = d.cd_index then Some d'.cd_file else None)
             registered)
      in
      match claimants with
      | first :: _ :: _ when d.cd_file <> first ->
          mk
            (List.find (fun fu -> fu.fu_path = d.cd_file) in_scope)
            d.cd_loc "counter-ownership"
            (Printf.sprintf
               "user-counter index %d (Counter.%s) is also claimed by %s; \
                indices have exactly one registering owner"
               d.cd_index d.cd_name first)
          :: acc
      | _ -> acc)
    acc registered

(* ------------------------------------------------------------------ *)
(* Rule: domain-shared-state                                           *)
(* ------------------------------------------------------------------ *)

(* Libraries whose code can execute inside a Pool worker domain: the
   whole simulated world plus the workload/stats/harness layers the
   campaign drivers run per cell.  A top-level mutable binding there is
   shared by every domain in the process: at best a silent determinism
   leak between campaign cells, at worst a cross-domain data race.  The
   blessed replacement is [Euno_sim.Domain_ref] (domain-local storage);
   genuinely safe process-globals (written only while no worker domain
   exists) carry a reasoned [allow] instead. *)
let domain_libs = sim_libs @ [ "workload"; "stats"; "harness" ]

let in_domain_scope fu =
  fu.fu_sim_pragma
  ||
  match lib_of fu.fu_path with Some d -> List.mem d domain_libs | None -> false

(* Every label declared [mutable] in this file, whatever its type: a
   top-level literal of such a record is writable shared state even when
   the field holds an immutable scalar. *)
let all_mutable_labels ast =
  let labels = ref SSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
              List.iter
                (fun ld ->
                  if ld.pld_mutable = Asttypes.Mutable then
                    labels := SSet.add ld.pld_name.txt !labels)
                lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  it.structure it ast;
  !labels

(* The binding shapes we flag: a fresh mutable container ([ref],
   [Hashtbl.create], [Array.make], an array literal, ...) or a literal
   of a record with mutable fields.  [Domain_ref.create] deliberately
   does not match — it is the fix, not the disease. *)
let rec shared_mutable_shape labels e =
  match e.pexp_desc with
  | Pexp_array _ -> Some "an array literal"
  | Pexp_apply (f, _) ->
      let parts = strip_stdlib (parts_of_fn f) in
      if returns_container parts then
        Some (String.concat "." parts)
      else None
  | Pexp_record (fields, _) ->
      if
        List.exists
          (fun ({ Location.txt; _ }, _) ->
            match last_part (parts_of_lid txt) with
            | Some n -> SSet.mem n labels
            | None -> false)
          fields
      then Some "a mutable-record literal"
      else None
  | Pexp_constraint (e, _) | Pexp_open (_, e) ->
      shared_mutable_shape labels e
  | _ -> None

let binding_name pat =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go pat

let rule_domain_state fu acc =
  if not (in_domain_scope fu) then acc
  else begin
    let labels = all_mutable_labels fu.fu_ast in
    let hits = ref [] in
    (* Structure-level bindings only (including inside nested top-level
       modules): locals inside functions are per-call, not shared. *)
    let rec scan_items items =
      List.iter
        (fun si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match binding_name vb.pvb_pat with
                  | Some name -> (
                      match shared_mutable_shape labels vb.pvb_expr with
                      | Some what ->
                          hits :=
                            mk fu vb.pvb_loc "domain-shared-state"
                              (Printf.sprintf
                                 "top-level binding %s holds %s, shared by \
                                  every domain: pool cells on worker domains \
                                  would race on it or leak state between \
                                  campaign cells; make it domain-local via \
                                  Euno_sim.Domain_ref, or carry a reasoned \
                                  allow if it is only touched while no \
                                  worker domain exists"
                                 name what)
                            :: !hits
                      | None -> ())
                  | None -> ())
                vbs
          | Pstr_module
              { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
              scan_items sub
          | _ -> ())
        items
    in
    scan_items fu.fu_ast;
    List.rev_append !hits acc
  end

(* ------------------------------------------------------------------ *)

let run files =
  let acc = [] in
  let acc = List.fold_left (fun acc fu -> rule_determinism fu acc) acc files in
  let acc = List.fold_left (fun acc fu -> rule_lock_paths fu acc) acc files in
  let acc = List.fold_left (fun acc fu -> rule_san_order fu acc) acc files in
  let acc = List.fold_left (fun acc fu -> rule_domain_state fu acc) acc files in
  rule_counters files acc
