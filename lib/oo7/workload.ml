(** The OO7 database generator and benchmark operations (§4), written
    once against {!Store_intf.S}.

    Application CPU is charged to the simulated clock in the categories
    of the paper's Table 7: a transient "iterator" allocation per node
    visited during hierarchy traversals, visited-part set maintenance
    per graph edge, and per-node traversal work. Every operation
    returns a count so the harness can check that both persistence
    schemes compute identical results. *)

module Clock = Simclock.Clock
module Category = Simclock.Category
module CM = Simclock.Cost_model
module Btree = Esm.Btree

module Make (S : Store_intf.S) = struct
  type fields = {
    ap_id : S.field;
    ap_date : S.field;
    ap_x : S.field;
    ap_y : S.field;
    ap_doc_id : S.field;
    ap_partof : S.field;
    ap_conn : S.field array;
    ap_from : S.field array;
    cn_length : S.field;
    cn_type : S.field;
    cn_from : S.field;
    cn_to : S.field;
    cp_id : S.field;
    cp_date : S.field;
    cp_root : S.field;
    cp_doc : S.field;
    cp_usedin : S.field;
    dc_id : S.field;
    dc_title : S.field;
    dc_comp : S.field;
    dc_tsize : S.field;
    dc_tlarge : S.field;
    dc_text : S.field;
    ba_id : S.field;
    ba_date : S.field;
    ba_parent : S.field;
    ba_comp : S.field array;
    ca_id : S.field;
    ca_date : S.field;
    ca_level : S.field;
    ca_parent : S.field;
    ca_sub : S.field array;
    md_id : S.field;
    md_root : S.field;
    md_manual : S.field;
    md_basecoll : S.field;
    ch_count : S.field;
    ch_next : S.field;
    ch_entry : S.field array;
  }

  (* [clk] and [cm] are the store's, fetched once: the per-node charges
     below then make no functor call to find them. *)
  type db = { st : S.t; params : Params.t; f : fields; clk : Clock.t; cm : CM.t }

  let fields_of st =
    let f cls name = S.field st ~cls ~name in
    { ap_id = f "AtomicPart" "id"
    ; ap_date = f "AtomicPart" "buildDate"
    ; ap_x = f "AtomicPart" "x"
    ; ap_y = f "AtomicPart" "y"
    ; ap_doc_id = f "AtomicPart" "docId"
    ; ap_partof = f "AtomicPart" "partOf"
    ; ap_conn = Array.init 3 (fun i -> f "AtomicPart" (Printf.sprintf "conn%d" i))
    ; ap_from = Array.init 3 (fun i -> f "AtomicPart" (Printf.sprintf "from%d" i))
    ; cn_length = f "Connection" "length"
    ; cn_type = f "Connection" "ctype"
    ; cn_from = f "Connection" "cfrom"
    ; cn_to = f "Connection" "cto"
    ; cp_id = f "CompositePart" "id"
    ; cp_date = f "CompositePart" "buildDate"
    ; cp_root = f "CompositePart" "rootPart"
    ; cp_doc = f "CompositePart" "doc"
    ; cp_usedin = f "CompositePart" "usedIn"
    ; dc_id = f "Document" "id"
    ; dc_title = f "Document" "title"
    ; dc_comp = f "Document" "comp"
    ; dc_tsize = f "Document" "textSize"
    ; dc_tlarge = f "Document" "textLarge"
    ; dc_text = f "Document" "text"
    ; ba_id = f "BaseAssembly" "id"
    ; ba_date = f "BaseAssembly" "buildDate"
    ; ba_parent = f "BaseAssembly" "parent"
    ; ba_comp = Array.init 3 (fun i -> f "BaseAssembly" (Printf.sprintf "comp%d" i))
    ; ca_id = f "ComplexAssembly" "id"
    ; ca_date = f "ComplexAssembly" "buildDate"
    ; ca_level = f "ComplexAssembly" "level"
    ; ca_parent = f "ComplexAssembly" "parent"
    ; ca_sub = Array.init 3 (fun i -> f "ComplexAssembly" (Printf.sprintf "sub%d" i))
    ; md_id = f "Module" "id"
    ; md_root = f "Module" "designRoot"
    ; md_manual = f "Module" "manual"
    ; md_basecoll = f "Module" "baseColl"
    ; ch_count = f "Chunk" "count"
    ; ch_next = f "Chunk" "next"
    ; ch_entry = Array.init Classes.chunk_capacity (fun i -> f "Chunk" (Printf.sprintf "e%d" i)) }

  let make_db st params =
    { st; params; f = fields_of st; clk = S.clock st; cm = S.cost_model st }

  (* --- application CPU charges (Table 7 categories) --- *)

  let malloc db = Qs_trace.charge db.clk Category.App_malloc db.cm.CM.malloc_us
  let setop db = Qs_trace.charge db.clk Category.App_set db.cm.CM.set_op_us
  let trav db = Qs_trace.charge db.clk Category.App_traverse db.cm.CM.traverse_node_us
  let char_work db = Qs_trace.charge db.clk Category.App_work db.cm.CM.char_work_us

  (* --- chunked collections --- *)

  let coll_append db ~cluster ~owner ~head_field target =
    let head = S.get_ptr db.st owner head_field in
    let chunk =
      if (not (S.is_null head)) && S.get_int db.st head db.f.ch_count < Classes.chunk_capacity then
        head
      else begin
        let c = S.create db.st ~cls:"Chunk" ~cluster in
        S.set_ptr db.st c db.f.ch_next head;
        S.set_ptr db.st owner head_field c;
        c
      end
    in
    let n = S.get_int db.st chunk db.f.ch_count in
    S.set_ptr db.st chunk db.f.ch_entry.(n) target;
    S.set_int db.st chunk db.f.ch_count (n + 1)

  let coll_iter db ~owner ~head_field fn =
    let rec go chunk =
      if not (S.is_null chunk) then begin
        let n = S.get_int db.st chunk db.f.ch_count in
        for i = 0 to n - 1 do
          trav db;
          fn (S.get_ptr db.st chunk db.f.ch_entry.(i))
        done;
        go (S.get_ptr db.st chunk db.f.ch_next)
      end
    in
    go (S.get_ptr db.st owner head_field)

  let coll_first db ~owner ~head_field =
    let head = S.get_ptr db.st owner head_field in
    if S.is_null head || S.get_int db.st head db.f.ch_count = 0 then None
    else Some (S.get_ptr db.st head db.f.ch_entry.(0))

  (* --- index keys --- *)

  let part_id_key id = Btree.key_of_int ~klen:Classes.part_id_klen id
  let date_key date id = Btree.key_of_int2 ~klen:Classes.build_date_klen date id
  let title_key s = Btree.key_of_string ~klen:Classes.doc_title_klen s

  (* ================================================================ *)
  (* Database generation                                              *)
  (* ================================================================ *)

  let register_classes st params =
    let inline_text =
      if params.Params.document_size <= params.Params.doc_inline_limit then
        params.Params.document_size
      else 0
    in
    List.iter (S.register_class st) (Classes.all ~inline_text)

  let build st (params : Params.t) ~seed =
    register_classes st params;
    let rng = Qs_util.Rng.create seed in
    S.begin_txn st;
    S.index_create st Classes.idx_part_id ~klen:Classes.part_id_klen;
    S.index_create st Classes.idx_build_date ~klen:Classes.build_date_klen;
    S.index_create st Classes.idx_doc_title ~klen:Classes.doc_title_klen;
    let db = make_db st params in
    let f = db.f in
    let date () = Qs_util.Rng.range rng params.Params.min_atomic_date params.Params.max_atomic_date in
    let commit_batch () =
      S.commit st;
      Esm.Server.checkpoint (Esm.Client.server (S.client st));
      S.begin_txn st
    in
    (* --- composite parts, each with its clustered part graph --- *)
    let n_comp = params.Params.num_comp_per_module in
    let n_parts = params.Params.num_atomic_per_comp in
    let composites = Array.make n_comp S.null in
    let next_part_id = ref 1 in
    for c = 0 to n_comp - 1 do
      if c > 0 && c mod 50 = 0 then commit_batch ();
      let cluster = S.new_cluster st in
      let comp = S.create st ~cls:"CompositePart" ~cluster in
      composites.(c) <- comp;
      S.set_int st comp f.cp_id (c + 1);
      S.set_int st comp f.cp_date (date ());
      S.set_chars st comp (S.field st ~cls:"CompositePart" ~name:"ptype") "composite";
      (* The document sits right after the composite object; with
         16-byte pointers it pushes the cluster onto a second page
         (the paper's 2:1 I/O ratio on clustered traversals). *)
      let doc = S.create st ~cls:"Document" ~cluster in
      S.set_int st doc f.dc_id (c + 1);
      S.set_chars st doc f.dc_title (Params.title_of_comp (c + 1));
      S.set_ptr st doc f.dc_comp comp;
      S.set_int st doc f.dc_tsize params.Params.document_size;
      if params.Params.document_size <= params.Params.doc_inline_limit then begin
        let text =
          String.init params.Params.document_size (fun i ->
              Char.chr (97 + ((i + c) mod 26)))
        in
        S.set_chars st doc f.dc_text text
      end
      else begin
        let big = S.create_large st ~size:params.Params.document_size in
        let sample = Bytes.init 256 (fun i -> Char.chr (97 + ((i + c) mod 26))) in
        S.large_write st big ~off:0 sample;
        S.set_ptr st doc f.dc_tlarge big
      end;
      S.set_ptr st comp f.cp_doc doc;
      S.index_insert st Classes.idx_doc_title ~key:(title_key (Params.title_of_comp (c + 1))) doc;
      (* Atomic parts, interleaved with their (not yet wired)
         connection objects so parts spread across the cluster's pages
         exactly as in a straightforward C++ build — the root part
         first, next to the composite object. *)
      let parts = Array.make n_parts S.null in
      let conns = Array.make (n_parts * params.Params.num_conn_per_atomic) S.null in
      for k = 0 to n_parts - 1 do
        let p = S.create st ~cls:"AtomicPart" ~cluster in
        parts.(k) <- p;
        S.set_int st p f.ap_id !next_part_id;
        incr next_part_id;
        S.set_int st p f.ap_date (date ());
        S.set_int st p f.ap_x (Qs_util.Rng.int rng 100_000);
        S.set_int st p f.ap_y (Qs_util.Rng.int rng 100_000);
        S.set_int st p f.ap_doc_id (c + 1);
        S.set_chars st p (S.field st ~cls:"AtomicPart" ~name:"ptype") "atomic";
        S.set_ptr st p f.ap_partof comp;
        S.index_insert st Classes.idx_part_id ~key:(part_id_key (S.get_int st p f.ap_id)) p;
        S.index_insert st Classes.idx_build_date
          ~key:(date_key (S.get_int st p f.ap_date) (S.get_int st p f.ap_id))
          p;
        for j = 0 to params.Params.num_conn_per_atomic - 1 do
          conns.((k * params.Params.num_conn_per_atomic) + j) <-
            S.create st ~cls:"Connection" ~cluster
        done
      done;
      S.set_ptr st comp f.cp_root parts.(0);
      Array.iteri
        (fun k p ->
          for j = 0 to params.Params.num_conn_per_atomic - 1 do
            let target_idx =
              if j = 0 then (k + 1) mod n_parts else Qs_util.Rng.int rng n_parts
            in
            let target = parts.(target_idx) in
            let conn = conns.((k * params.Params.num_conn_per_atomic) + j) in
            S.set_int st conn f.cn_length (Qs_util.Rng.int rng 1000);
            S.set_chars st conn f.cn_type "conn";
            S.set_ptr st conn f.cn_from p;
            S.set_ptr st conn f.cn_to target;
            S.set_ptr st p f.ap_conn.(j) conn;
            (* Back-pointer into the first free incoming slot. *)
            let rec backfill i =
              if i < Array.length f.ap_from then begin
                if S.is_null (S.get_ptr st target f.ap_from.(i)) then
                  S.set_ptr st target f.ap_from.(i) conn
                else backfill (i + 1)
              end
            in
            backfill 0
          done)
        parts
    done;
    commit_batch ();
    (* --- assembly hierarchy, module, manual --- *)
    let asm_cluster = S.new_cluster st in
    let chunk_cluster = S.new_cluster st in
    let next_asm_id = ref 1 in
    let module_cluster = S.new_cluster st in
    let module_ = S.create st ~cls:"Module" ~cluster:module_cluster in
    S.set_int st module_ f.md_id 1;
    let rec mk_assembly level parent =
      if level = params.Params.num_assm_levels then begin
        let ba = S.create st ~cls:"BaseAssembly" ~cluster:asm_cluster in
        S.set_int st ba f.ba_id !next_asm_id;
        incr next_asm_id;
        S.set_int st ba f.ba_date (date ());
        S.set_ptr st ba f.ba_parent parent;
        for i = 0 to params.Params.num_comp_per_assm - 1 do
          let comp = composites.(Qs_util.Rng.int rng n_comp) in
          S.set_ptr st ba f.ba_comp.(i) comp;
          coll_append db ~cluster:chunk_cluster ~owner:comp ~head_field:f.cp_usedin ba
        done;
        coll_append db ~cluster:chunk_cluster ~owner:module_ ~head_field:f.md_basecoll ba;
        ba
      end
      else begin
        let ca = S.create st ~cls:"ComplexAssembly" ~cluster:asm_cluster in
        S.set_int st ca f.ca_id !next_asm_id;
        incr next_asm_id;
        S.set_int st ca f.ca_date (date ());
        S.set_int st ca f.ca_level level;
        S.set_ptr st ca f.ca_parent parent;
        for i = 0 to params.Params.num_assm_per_assm - 1 do
          S.set_ptr st ca f.ca_sub.(i) (mk_assembly (level + 1) ca)
        done;
        ca
      end
    in
    let design_root = mk_assembly 1 S.null in
    S.set_ptr st module_ f.md_root design_root;
    (* Manual: a multi-page object; first and last bytes match (T9). *)
    let manual = S.create_large st ~size:params.Params.manual_size in
    let block = 4096 in
    let rec fill off =
      if off < params.Params.manual_size then begin
        let n = min block (params.Params.manual_size - off) in
        S.large_write st manual ~off (Bytes.init n (fun i -> Char.chr (97 + ((off + i) mod 26))));
        fill (off + n)
      end
    in
    fill 0;
    S.large_write st manual ~off:(params.Params.manual_size - 1) (Bytes.of_string "a");
    S.set_ptr st module_ f.md_manual manual;
    S.set_root st "module" module_;
    S.commit st;
    Esm.Server.checkpoint (Esm.Client.server (S.client st));
    db

  (* Attach to an existing database (schema already persisted). *)
  let attach st params = make_db st params

  (* ================================================================ *)
  (* Traversals                                                       *)
  (* ================================================================ *)

  (* The per-composite visited set, keyed by [S.ptr_id]. The generic
     [Hashtbl] would hash and compare through C calls per edge; an
     odd-multiplier hash keeps the work in OCaml, and its high bits
     spread the aligned ids over the buckets. *)
  module Visited = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash x = (x * 0x2545F4914F6CDD1D) lsr 29
  end)

  (* Depth-first search of one composite part's graph of atomic parts.
     [visit] controls how much of the graph the traversal touches (T6
     only visits the root part); [update_scope] controls which visited
     parts [update] is applied to (T2A/T3A do the full T1 traversal but
     update only the root part — the paper's access-violation counts
     show T2A performs all of T1's read faults). Returns parts
     visited. *)
  let traverse_composite db ?(update = fun _ -> ()) ?(visit = `All) ?(update_scope = `All) comp =
    (* A full graph DFS allocates a transient iterator per node (the
       Table 7 "malloc" entry); the root-only visit of T6 is a plain
       scalar-field dereference with no cursor. *)
    if visit = `All then malloc db;
    trav db;
    let visited = Visited.create 64 in
    let count = ref 0 in
    let root = S.get_ptr db.st comp db.f.cp_root in
    (match visit with
     | `Root_only ->
       trav db;
       incr count;
       update root
     | `All ->
       let root_id = S.ptr_id db.st root in
       let rec dfs part =
         malloc db;
         trav db;
         setop db;
         Visited.replace visited (S.ptr_id db.st part) ();
         incr count;
         (match update_scope with
          | `All -> update part
          | `Root_only -> if S.ptr_id db.st part = root_id then update part);
         for j = 0 to Array.length db.f.ap_conn - 1 do
           trav db;
           let conn = S.get_ptr db.st part db.f.ap_conn.(j) in
           if not (S.is_null conn) then begin
             let target = S.get_ptr db.st conn db.f.cn_to in
             setop db;
             if not (Visited.mem visited (S.ptr_id db.st target)) then dfs target
           end
         done
       in
       dfs root);
    !count

  (* Depth-first search of the assembly hierarchy, applying
     [visit_base] to every base assembly. [iterators] charges the
     per-node transient allocation; T6's sparse pass reuses a single
     cursor and skips it. *)
  let traverse_hierarchy ?(iterators = true) db visit_base =
    let levels = db.params.Params.num_assm_levels in
    let module_ = S.root db.st "module" in
    let rec go asm level =
      if iterators then malloc db;
      trav db;
      if level = levels then visit_base asm
      else
        for i = 0 to Array.length db.f.ca_sub - 1 do
          go (S.get_ptr db.st asm db.f.ca_sub.(i)) (level + 1)
        done
    in
    go (S.get_ptr db.st module_ db.f.md_root) 1

  let t1 db =
    let total = ref 0 in
    traverse_hierarchy db (fun ba ->
        for i = 0 to Array.length db.f.ba_comp - 1 do
          total := !total + traverse_composite db (S.get_ptr db.st ba db.f.ba_comp.(i))
        done);
    !total

  let t6 db =
    let total = ref 0 in
    traverse_hierarchy ~iterators:false db (fun ba ->
        for i = 0 to Array.length db.f.ba_comp - 1 do
          let comp = S.get_ptr db.st ba db.f.ba_comp.(i) in
          total := !total + traverse_composite db ~visit:`Root_only comp
        done);
    !total

  (* T2: increment (x, y); [scope] picks A (root only) / B (all) /
     C (all, four times). *)
  let bump_xy db part =
    S.set_int db.st part db.f.ap_x (S.get_int db.st part db.f.ap_x + 1);
    S.set_int db.st part db.f.ap_y (S.get_int db.st part db.f.ap_y + 1)

  let t2 db variant =
    let update, update_scope =
      match variant with
      | `A -> ((fun p -> bump_xy db p), `Root_only)
      | `B -> ((fun p -> bump_xy db p), `All)
      | `C ->
        ( (fun p ->
            for _ = 1 to 4 do
              bump_xy db p
            done)
        , `All )
    in
    let total = ref 0 in
    traverse_hierarchy db (fun ba ->
        for i = 0 to Array.length db.f.ba_comp - 1 do
          total :=
            !total + traverse_composite db ~update ~update_scope (S.get_ptr db.st ba db.f.ba_comp.(i))
        done);
    !total

  (* T3: increment the indexed buildDate, maintaining the index. *)
  let bump_date db part =
    let id = S.get_int db.st part db.f.ap_id in
    let old_date = S.get_int db.st part db.f.ap_date in
    S.index_delete db.st Classes.idx_build_date ~key:(date_key old_date id) part;
    S.set_int db.st part db.f.ap_date (old_date + 1);
    S.index_insert db.st Classes.idx_build_date ~key:(date_key (old_date + 1) id) part

  let t3 db variant =
    let update, update_scope =
      match variant with
      | `A -> ((fun p -> bump_date db p), `Root_only)
      | `B -> ((fun p -> bump_date db p), `All)
      | `C ->
        ( (fun p ->
            for _ = 1 to 4 do
              bump_date db p
            done)
        , `All )
    in
    let total = ref 0 in
    traverse_hierarchy db (fun ba ->
        for i = 0 to Array.length db.f.ba_comp - 1 do
          total :=
            !total + traverse_composite db ~update ~update_scope (S.get_ptr db.st ba db.f.ba_comp.(i))
        done);
    !total

  (* T7: random atomic part, then up to the root of the hierarchy. *)
  let t7 db ~seed =
    let rng = Qs_util.Rng.create seed in
    let id = 1 + Qs_util.Rng.int rng (Params.num_atomic_parts db.params) in
    match S.index_lookup db.st Classes.idx_part_id ~key:(part_id_key id) with
    | None -> 0
    | Some part ->
      trav db;
      let comp = S.get_ptr db.st part db.f.ap_partof in
      trav db;
      let hops = ref 2 in
      (match coll_first db ~owner:comp ~head_field:db.f.cp_usedin with
       | None -> ()
       | Some base ->
         trav db;
         incr hops;
         let rec up asm =
           if not (S.is_null asm) then begin
             trav db;
             incr hops;
             up (S.get_ptr db.st asm db.f.ca_parent)
           end
         in
         up (S.get_ptr db.st base db.f.ba_parent));
      !hops

  (* T8: scan the manual counting occurrences of a character. *)
  let t8 db =
    let module_ = S.root db.st "module" in
    let manual = S.get_ptr db.st module_ db.f.md_manual in
    let size = S.large_size db.st manual in
    let count = ref 0 in
    for i = 0 to size - 1 do
      char_work db;
      if S.large_byte db.st manual i = 'j' then incr count
    done;
    !count

  (* T9: first and last character of the manual equal? *)
  let t9 db =
    let module_ = S.root db.st "module" in
    let manual = S.get_ptr db.st module_ db.f.md_manual in
    let size = S.large_size db.st manual in
    char_work db;
    char_work db;
    if S.large_byte db.st manual 0 = S.large_byte db.st manual (size - 1) then 1 else 0

  (* ================================================================ *)
  (* Queries                                                          *)
  (* ================================================================ *)

  (* Q1: ten random atomic parts through the id index. *)
  let q1 db ~seed =
    let rng = Qs_util.Rng.create seed in
    let found = ref 0 in
    for _ = 1 to 10 do
      let id = 1 + Qs_util.Rng.int rng (Params.num_atomic_parts db.params) in
      match S.index_lookup db.st Classes.idx_part_id ~key:(part_id_key id) with
      | Some part ->
        trav db;
        ignore (S.get_int db.st part db.f.ap_x);
        ignore (S.get_int db.st part db.f.ap_y);
        incr found
      | None -> ()
    done;
    !found

  (* Q2/Q3: the most recent fraction of parts by buildDate (dates are
     uniform, so a date cutoff selects the fraction). *)
  let date_range_scan db ~cutoff =
    let p = db.params in
    let lo = date_key cutoff 0 in
    let hi = date_key p.Params.max_atomic_date max_int in
    let count = ref 0 in
    S.index_range db.st Classes.idx_build_date ~lo ~hi (fun part ->
        trav db;
        ignore (S.get_int db.st part db.f.ap_x);
        incr count);
    !count

  let q2 db =
    let p = db.params in
    let span = p.Params.max_atomic_date - p.Params.min_atomic_date + 1 in
    date_range_scan db ~cutoff:(p.Params.max_atomic_date - (span / 100) + 1)

  let q3 db =
    let p = db.params in
    let span = p.Params.max_atomic_date - p.Params.min_atomic_date + 1 in
    date_range_scan db ~cutoff:(p.Params.max_atomic_date - (span / 10) + 1)

  (* Q4: ten random document titles; for each, the base assemblies
     using the corresponding composite part. *)
  let q4 db ~seed =
    let rng = Qs_util.Rng.create seed in
    let count = ref 0 in
    for _ = 1 to 10 do
      let cid = 1 + Qs_util.Rng.int rng db.params.Params.num_comp_per_module in
      match S.index_lookup db.st Classes.idx_doc_title ~key:(title_key (Params.title_of_comp cid)) with
      | None -> ()
      | Some doc ->
        trav db;
        let comp = S.get_ptr db.st doc db.f.dc_comp in
        coll_iter db ~owner:comp ~head_field:db.f.cp_usedin (fun ba ->
            ignore (S.get_int db.st ba db.f.ba_id);
            incr count)
    done;
    !count

  (* Q5: single-level make — base assemblies that use a composite part
     with a later build date (a nested-loops pointer join). *)
  let q5 db =
    let module_ = S.root db.st "module" in
    let count = ref 0 in
    coll_iter db ~owner:module_ ~head_field:db.f.md_basecoll (fun ba ->
        let ba_date = S.get_int db.st ba db.f.ba_date in
        for i = 0 to Array.length db.f.ba_comp - 1 do
          trav db;
          let comp = S.get_ptr db.st ba db.f.ba_comp.(i) in
          if S.get_int db.st comp db.f.cp_date > ba_date then incr count
        done);
    !count

  (* --- operation table for the harness --- *)

  type op_kind = Read_only | Update

  let ops =
    [ ("T1", Read_only, fun db ~seed:_ -> t1 db)
    ; ("T2A", Update, fun db ~seed:_ -> t2 db `A)
    ; ("T2B", Update, fun db ~seed:_ -> t2 db `B)
    ; ("T2C", Update, fun db ~seed:_ -> t2 db `C)
    ; ("T3A", Update, fun db ~seed:_ -> t3 db `A)
    ; ("T3B", Update, fun db ~seed:_ -> t3 db `B)
    ; ("T3C", Update, fun db ~seed:_ -> t3 db `C)
    ; ("T6", Read_only, fun db ~seed:_ -> t6 db)
    ; ("T7", Read_only, fun db ~seed -> t7 db ~seed)
    ; ("T8", Read_only, fun db ~seed:_ -> t8 db)
    ; ("T9", Read_only, fun db ~seed:_ -> t9 db)
    ; ("Q1", Read_only, fun db ~seed -> q1 db ~seed)
    ; ("Q2", Read_only, fun db ~seed:_ -> q2 db)
    ; ("Q3", Read_only, fun db ~seed:_ -> q3 db)
    ; ("Q4", Read_only, fun db ~seed -> q4 db ~seed)
    ; ("Q5", Read_only, fun db ~seed:_ -> q5 db) ]

  let find_op name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) ops with
    | Some (_, kind, fn) -> (kind, fn)
    | None -> invalid_arg (Printf.sprintf "OO7: unknown operation %s" name)
end
