(* QuickStore core tests: faulting, swizzling, relocation, diffing
   recovery-buffer behaviour, large-object descriptor splitting, the
   simplified clock under paging, and crash recovery. *)

module Store = Quickstore.Store
module Qs_config = Quickstore.Qs_config
module Rec_buffer = Quickstore.Rec_buffer
module Codec = Qs_util.Codec
module Server = Esm.Server
module Clock = Simclock.Clock
module Cat = Simclock.Category

let node_def =
  Schema.class_def "Node" [ ("id", Schema.F_int); ("next", Schema.F_ptr); ("tag", Schema.F_chars 12) ]

let mk ?(config = Qs_config.default) ?(server_frames = 512) () =
  let server =
    Server.create ~frames:server_frames ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default ()
  in
  let st = Store.create_db ~config server in
  Store.register_class st node_def;
  (server, st)

(* Build a linked list of [n] nodes, [per_cluster] nodes per cluster
   (forcing multiple pages), rooted at "head". *)
let build_list st ~n ~per_cluster =
  Store.begin_txn st;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  let f_tag = Store.field st ~cls:"Node" ~name:"tag" in
  let cluster = ref (Store.new_cluster st) in
  let first = ref Store.null in
  let prev = ref Store.null in
  for i = 0 to n - 1 do
    if i mod per_cluster = 0 then cluster := Store.new_cluster st;
    let p = Store.create st ~cls:"Node" ~cluster:!cluster in
    Store.set_int st p f_id i;
    Store.set_chars st p f_tag (Printf.sprintf "node-%d" i);
    if Store.is_null !prev then first := p else Store.set_ptr st !prev f_next p;
    prev := p
  done;
  Store.set_root st "head" !first;
  Store.commit st

let walk_list st =
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  let f_tag = Store.field st ~cls:"Node" ~name:"tag" in
  let rec go p i acc =
    if Store.is_null p then (i, acc)
    else begin
      let id = Store.get_int st p f_id in
      let tag = Qs_util.Codec.get_cstring (Bytes.of_string (Store.get_chars st p f_tag)) 0 12 in
      let ok = acc && id = i && tag = Printf.sprintf "node-%d" i in
      go (Store.get_ptr st p f_next) (i + 1) ok
    end
  in
  go (Store.root st "head") 0 true

let test_create_and_walk () =
  let _server, st = mk () in
  build_list st ~n:100 ~per_cluster:10;
  Store.begin_txn st;
  let count, ok = walk_list st in
  Alcotest.(check int) "all nodes" 100 count;
  Alcotest.(check bool) "fields intact" true ok;
  Alcotest.(check bool) "mapping invariants" true (Store.mapping_invariants_hold st);
  Store.commit st

let test_cold_walk_faults () =
  let _server, st = mk () in
  build_list st ~n:200 ~per_cluster:20;
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  let count, ok = walk_list st in
  Alcotest.(check int) "nodes" 200 count;
  Alcotest.(check bool) "intact" true ok;
  let s = Store.stats st in
  Alcotest.(check bool) "hard faults happened" true (s.Store.hard_faults >= 10);
  Alcotest.(check int) "no pointer rewrites without relocation" 0 s.Store.ptrs_rewritten;
  (* Hot re-walk inside the same transaction: zero additional faults. *)
  let before = s.Store.hard_faults + s.Store.soft_faults in
  let _, ok2 = walk_list st in
  Alcotest.(check bool) "hot intact" true ok2;
  let after = s.Store.hard_faults + s.Store.soft_faults in
  Alcotest.(check int) "hot walk faults nothing" before after;
  Store.commit st

let test_static_mapping_across_runs () =
  (* The same disk page must land on the same virtual frame across cold
     runs (no relocation), so stored pointers never need rewriting. *)
  let _server, st = mk () in
  build_list st ~n:150 ~per_cluster:15;
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  ignore (walk_list st);
  Store.commit st;
  Alcotest.(check int) "run 1: nothing relocated" 0 (Store.stats st).Store.relocations;
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  let n, ok = walk_list st in
  Store.commit st;
  Alcotest.(check int) "run 2 nodes" 150 n;
  Alcotest.(check bool) "run 2 intact" true ok;
  Alcotest.(check int) "run 2: nothing relocated" 0 (Store.stats st).Store.relocations;
  Alcotest.(check int) "run 2: nothing swizzled" 0 (Store.stats st).Store.pages_swizzled

let test_update_commit_durable () =
  let server, st = mk () in
  build_list st ~n:50 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.begin_txn st;
  (* Add 1000 to every node id. *)
  let rec bump p =
    if not (Store.is_null p) then begin
      Store.set_int st p f_id (Store.get_int st p f_id + 1000);
      bump (Store.get_ptr st p f_next)
    end
  in
  bump (Store.root st "head");
  Store.commit st;
  Alcotest.(check bool) "pages were diffed" true ((Store.stats st).Store.pages_diffed > 0);
  Alcotest.(check bool) "log records generated" true ((Store.stats st).Store.diff_log_records > 0);
  Store.reset_caches st;
  ignore server;
  Store.begin_txn st;
  let rec verify p i ok =
    if Store.is_null p then ok
    else verify (Store.get_ptr st p f_next) (i + 1) (ok && Store.get_int st p f_id = i + 1000)
  in
  Alcotest.(check bool) "updates durable after cache reset" true
    (verify (Store.root st "head") 0 true);
  Store.commit st

let test_abort_restores () =
  let _server, st = mk () in
  build_list st ~n:20 ~per_cluster:20;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  Store.begin_txn st;
  let head = Store.root st "head" in
  Store.set_int st head f_id 99999;
  Store.abort st;
  Store.begin_txn st;
  Alcotest.(check int) "aborted update gone" 0 (Store.get_int st (Store.root st "head") f_id);
  Store.commit st

let test_crash_recovery () =
  let server, st = mk () in
  build_list st ~n:40 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  Store.begin_txn st;
  let head = Store.root st "head" in
  Store.set_int st head f_id 777;
  Store.commit st;
  Server.crash server;
  ignore (Esm.Recovery.restart server);
  (* Fresh store attached to the recovered volume. *)
  let st2 = Store.open_db server in
  Store.begin_txn st2;
  Alcotest.(check int) "committed update recovered" 777
    (Store.get_int st2 (Store.root st2 "head") (Store.field st2 ~cls:"Node" ~name:"id"));
  Store.commit st2

let test_relocation_continual () =
  let config = { Qs_config.default with Qs_config.reloc = Qs_config.Continual 1.0 } in
  let _server, st = mk ~config () in
  build_list st ~n:120 ~per_cluster:12;
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  let n, ok = walk_list st in
  Store.commit st;
  Alcotest.(check int) "nodes under full relocation" 120 n;
  Alcotest.(check bool) "values correct after swizzling" true ok;
  let s = Store.stats st in
  Alcotest.(check bool) "relocations happened" true (s.Store.relocations > 5);
  Alcotest.(check bool) "pointers rewritten" true (s.Store.ptrs_rewritten > 50);
  (* Continual relocation never writes the new mapping back: the next
     cold run must swizzle again. *)
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  let n2, ok2 = walk_list st in
  Store.commit st;
  Alcotest.(check bool) "second run re-swizzles" true ((Store.stats st).Store.ptrs_rewritten > 50);
  Alcotest.(check bool) "second run intact" true (n2 = 120 && ok2)

let test_relocation_one_time () =
  let server, st = mk ~config:{ Qs_config.default with Qs_config.reloc = Qs_config.One_time 1.0 } () in
  build_list st ~n:120 ~per_cluster:12;
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  let n, ok = walk_list st in
  Store.commit st;
  Alcotest.(check bool) "first OR run relocates and survives" true (n = 120 && ok);
  Alcotest.(check bool) "OR swizzled" true ((Store.stats st).Store.ptrs_rewritten > 50);
  (* The new mapping was committed: a no-relocation store reading the
     same database must find fully consistent pointers. *)
  let st2 = Store.open_db server in
  Store.reset_caches st2;
  Store.begin_txn st2;
  let f_id = Store.field st2 ~cls:"Node" ~name:"id" in
  let f_next = Store.field st2 ~cls:"Node" ~name:"next" in
  let rec go p i = if Store.is_null p then i else begin
      Alcotest.(check int) "id in order" i (Store.get_int st2 p f_id);
      go (Store.get_ptr st2 p f_next) (i + 1)
    end
  in
  Alcotest.(check int) "all nodes via committed mapping" 120 (go (Store.root st2 "head") 0);
  Store.commit st2;
  Alcotest.(check int) "no swizzling needed after OR commit" 0 (Store.stats st2).Store.pages_swizzled

let test_rec_buffer_overflow () =
  (* A recovery buffer smaller than the update set forces mid-commit
     flushes (the paper's QS-B T2B/T2C effect). *)
  let config = { Qs_config.default with Qs_config.rec_buffer_bytes = 4 * 8192 } in
  let _server, st = mk ~config () in
  build_list st ~n:200 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.begin_txn st;
  let rec bump p =
    if not (Store.is_null p) then begin
      Store.set_int st p f_id (Store.get_int st p f_id + 5);
      bump (Store.get_ptr st p f_next)
    end
  in
  bump (Store.root st "head");
  Store.commit st;
  Alcotest.(check bool) "overflow happened" true ((Store.stats st).Store.rec_buffer_overflows > 0);
  Store.reset_caches st;
  Store.begin_txn st;
  let rec verify p i ok =
    if Store.is_null p then ok
    else verify (Store.get_ptr st p f_next) (i + 1) (ok && Store.get_int st p f_id = i + 5)
  in
  Alcotest.(check bool) "all updates durable despite overflow" true
    (verify (Store.root st "head") 0 true);
  Store.commit st

let test_paging_small_pool () =
  (* Client pool of 16 frames, ~40 data pages plus metadata: the
     simplified clock must page correctly and data stays intact. *)
  let config = { Qs_config.default with Qs_config.client_frames = 16 } in
  let _server, st = mk ~config () in
  build_list st ~n:400 ~per_cluster:10;
  Store.reset_caches st;
  Store.begin_txn st;
  for _ = 1 to 3 do
    let n, ok = walk_list st in
    Alcotest.(check bool) "walk under paging" true (n = 400 && ok)
  done;
  Store.commit st

let test_paging_with_updates () =
  let config = { Qs_config.default with Qs_config.client_frames = 16 } in
  let _server, st = mk ~config () in
  build_list st ~n:400 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.reset_caches st;
  Store.begin_txn st;
  let rec bump p =
    if not (Store.is_null p) then begin
      Store.set_int st p f_id (Store.get_int st p f_id + 1);
      bump (Store.get_ptr st p f_next)
    end
  in
  bump (Store.root st "head");
  Store.commit st;
  Store.reset_caches st;
  Store.begin_txn st;
  let rec verify p i ok =
    if Store.is_null p then ok
    else verify (Store.get_ptr st p f_next) (i + 1) (ok && Store.get_int st p f_id = i + 1)
  in
  Alcotest.(check bool) "stolen dirty pages logged correctly" true
    (verify (Store.root st "head") 0 true);
  Store.commit st

let test_large_object () =
  let _server, st = mk () in
  Store.begin_txn st;
  let manual = Store.create_large st ~size:100_000 in
  let data = Bytes.init 100 (fun i -> Char.chr (65 + (i mod 26))) in
  Store.large_write st manual ~off:0 data;
  Store.large_write st manual ~off:99_900 data;
  (* Stash it behind a node so it can be found again. *)
  let cluster = Store.new_cluster st in
  let holder = Store.create st ~cls:"Node" ~cluster in
  Store.set_ptr st holder (Store.field st ~cls:"Node" ~name:"next") manual;
  Store.set_root st "holder" holder;
  Store.commit st;
  Store.reset_caches st;
  Store.begin_txn st;
  let holder = Store.root st "holder" in
  let manual = Store.get_ptr st holder (Store.field st ~cls:"Node" ~name:"next") in
  Alcotest.(check int) "size" 100_000 (Store.large_size st manual);
  let tables_before = Store.mapping_table_size st in
  Alcotest.(check char) "first byte" 'A' (Store.large_byte st manual 0);
  Alcotest.(check char) "last region byte" 'A' (Store.large_byte st manual 99_900);
  Alcotest.(check char) "untouched zero" '\000' (Store.large_byte st manual 50_000);
  (* Descriptor splitting happened: accessing 3 scattered pages turns
     one range descriptor into several (Figure 3). *)
  Alcotest.(check bool) "descriptor split" true (Store.mapping_table_size st > tables_before);
  Alcotest.(check bool) "mapping invariants after splits" true (Store.mapping_invariants_hold st);
  Store.commit st

let test_large_scan () =
  let _server, st = mk () in
  Store.begin_txn st;
  let manual = Store.create_large st ~size:50_000 in
  let pat = Bytes.init 50_000 (fun i -> Char.chr (i mod 251)) in
  Store.large_write st manual ~off:0 pat;
  let cluster = Store.new_cluster st in
  let holder = Store.create st ~cls:"Node" ~cluster in
  Store.set_ptr st holder (Store.field st ~cls:"Node" ~name:"next") manual;
  Store.set_root st "holder" holder;
  Store.commit st;
  Store.reset_caches st;
  Store.begin_txn st;
  let manual =
    Store.get_ptr st (Store.root st "holder") (Store.field st ~cls:"Node" ~name:"next")
  in
  let ok = ref true in
  for i = 0 to 49_999 do
    if Store.large_byte st manual i <> Char.chr (i mod 251) then ok := false
  done;
  Alcotest.(check bool) "full scan matches" true !ok;
  Store.commit st

let test_index_roundtrip () =
  let _server, st = mk () in
  build_list st ~n:100 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.begin_txn st;
  Store.index_create st "by_id" ~klen:8;
  let rec index p =
    if not (Store.is_null p) then begin
      Store.index_insert st "by_id" ~key:(Esm.Btree.key_of_int ~klen:8 (Store.get_int st p f_id)) p;
      index (Store.get_ptr st p f_next)
    end
  in
  index (Store.root st "head");
  Store.commit st;
  Store.reset_caches st;
  Store.begin_txn st;
  (match Store.index_lookup st "by_id" ~key:(Esm.Btree.key_of_int ~klen:8 42) with
   | Some p -> Alcotest.(check int) "index lookup" 42 (Store.get_int st p f_id)
   | None -> Alcotest.fail "missing key 42");
  let seen = ref [] in
  Store.index_range st "by_id" ~lo:(Esm.Btree.key_of_int ~klen:8 10)
    ~hi:(Esm.Btree.key_of_int ~klen:8 14) (fun p -> seen := Store.get_int st p f_id :: !seen);
  Alcotest.(check (list int)) "range scan" [ 10; 11; 12; 13; 14 ] (List.rev !seen);
  Store.commit st

let test_qs_b_padding () =
  let _server, st = mk ~config:{ Qs_config.default with Qs_config.mode = Qs_config.Big_objects } () in
  let l = Store.layout st "Node" in
  (* Node under E: id 4 + next 16 + tag 12 = 32; under QS: 4+4+12 = 20. *)
  Alcotest.(check int) "QS-B object padded to E size" 32 l.Schema.l_size;
  build_list st ~n:50 ~per_cluster:10;
  Store.reset_caches st;
  Store.begin_txn st;
  let n, ok = walk_list st in
  Alcotest.(check bool) "QS-B walks correctly" true (n = 50 && ok);
  Store.commit st

(* Texas/Wilson page-offset pointer format (QS-W): everything works
   across cold restarts, pointers on disk are page-offset pairs, and
   the database carries no mapping objects. *)
let test_offsets_format_roundtrip () =
  let config = { Qs_config.default with Qs_config.ptr_format = Qs_config.Page_offsets } in
  let _server, st = mk ~config () in
  Alcotest.(check string) "system name" "QS-W" (Store.system_name st);
  build_list st ~n:150 ~per_cluster:15;
  Store.reset_caches st;
  Store.reset_stats st;
  Store.begin_txn st;
  let n, ok = walk_list st in
  Store.commit st;
  Alcotest.(check bool) "cold walk" true (n = 150 && ok);
  (* Every faulted page was swizzled (that is the scheme's cost). *)
  Alcotest.(check bool) "pages swizzled" true ((Store.stats st).Store.pages_swizzled >= 10);
  Alcotest.(check bool) "pointers rewritten" true ((Store.stats st).Store.ptrs_rewritten >= 140)

let test_offsets_format_update () =
  let config = { Qs_config.default with Qs_config.ptr_format = Qs_config.Page_offsets } in
  let _server, st = mk ~config () in
  build_list st ~n:100 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.reset_caches st;
  Store.begin_txn st;
  let rec bump p =
    if not (Store.is_null p) then begin
      Store.set_int st p f_id (Store.get_int st p f_id + 9);
      bump (Store.get_ptr st p f_next)
    end
  in
  bump (Store.root st "head");
  Store.commit st;
  Store.reset_caches st;
  Store.begin_txn st;
  let rec verify p i ok =
    if Store.is_null p then ok
    else verify (Store.get_ptr st p f_next) (i + 1) (ok && Store.get_int st p f_id = i + 9)
  in
  Alcotest.(check bool) "updates durable in disk format" true (verify (Store.root st "head") 0 true);
  Store.commit st

let test_offsets_format_paging () =
  (* Dirty pages stolen mid-transaction must be unswizzled on the way
     out and re-swizzled on reload. *)
  let config =
    { Qs_config.default with
      Qs_config.ptr_format = Qs_config.Page_offsets
    ; Qs_config.client_frames = 16 }
  in
  let _server, st = mk ~config () in
  build_list st ~n:400 ~per_cluster:10;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.reset_caches st;
  Store.begin_txn st;
  let rec bump p =
    if not (Store.is_null p) then begin
      Store.set_int st p f_id (Store.get_int st p f_id + 1);
      bump (Store.get_ptr st p f_next)
    end
  in
  bump (Store.root st "head");
  Store.commit st;
  Store.reset_caches st;
  Store.begin_txn st;
  let rec verify p i ok =
    if Store.is_null p then ok
    else verify (Store.get_ptr st p f_next) (i + 1) (ok && Store.get_int st p f_id = i + 1)
  in
  Alcotest.(check bool) "steal/unswizzle/reload" true (verify (Store.root st "head") 0 true);
  Store.commit st

let test_offsets_rejects_relocation () =
  let config =
    { Qs_config.default with
      Qs_config.ptr_format = Qs_config.Page_offsets
    ; Qs_config.reloc = Qs_config.Continual 0.5 }
  in
  let server = Server.create ~frames:64 ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default () in
  Alcotest.check_raises "reloc is a VM-format concept"
    (Invalid_argument "QuickStore: relocation modes apply to VM-address pointers only") (fun () ->
      ignore (Store.create_db ~config server))

let test_cost_categories_charged () =
  let server, st = mk () in
  build_list st ~n:100 ~per_cluster:10;
  let clock = Server.clock server in
  Store.reset_caches st;
  Clock.reset clock;
  Store.begin_txn st;
  ignore (walk_list st);
  Store.commit st;
  let pos cat = Clock.category_us clock cat > 0.0 in
  Alcotest.(check bool) "data I/O" true (pos Cat.Data_io);
  Alcotest.(check bool) "map I/O" true (pos Cat.Map_io);
  Alcotest.(check bool) "page faults" true (pos Cat.Page_fault);
  Alcotest.(check bool) "min faults" true (pos Cat.Min_fault);
  Alcotest.(check bool) "mmap" true (pos Cat.Mmap_call);
  Alcotest.(check bool) "swizzle entries" true (pos Cat.Swizzle);
  Alcotest.(check bool) "no diffing in read-only txn" false (pos Cat.Diff)

let test_diff_regions () =
  let old_bytes = Bytes.make 1000 'a' in
  let new_bytes = Bytes.copy old_bytes in
  Alcotest.(check (list (pair int int))) "no change" []
    (Codec.diff_regions ~old_bytes ~new_bytes ~gap:25);
  (* First and last byte: far apart, two records (the paper's 1K
     object example). *)
  Bytes.set new_bytes 0 'X';
  Bytes.set new_bytes 999 'Y';
  Alcotest.(check (list (pair int int))) "two distant regions" [ (0, 1); (999, 1) ]
    (Codec.diff_regions ~old_bytes ~new_bytes ~gap:25);
  (* Bytes 0, 2, 4 modified: gaps of 1 coalesce into one region. *)
  let new2 = Bytes.copy old_bytes in
  Bytes.set new2 0 'X';
  Bytes.set new2 2 'X';
  Bytes.set new2 4 'X';
  Alcotest.(check (list (pair int int))) "coalesced" [ (0, 5) ]
    (Codec.diff_regions ~old_bytes ~new_bytes:new2 ~gap:25);
  (* Gap 0: a region closes at the first equal byte. *)
  Bytes.set new2 1 'X';
  Alcotest.(check (list (pair int int))) "gap 0 maximal runs" [ (0, 3); (4, 1) ]
    (Codec.diff_regions ~old_bytes ~new_bytes:new2 ~gap:0)

let prop_diff_patch_identity =
  QCheck.Test.make ~name:"applying diff regions to old yields new" ~count:200
    QCheck.(pair (int_range 1 40) (list (pair (int_bound 499) (int_bound 255))))
    (fun (gap, writes) ->
      let old_bytes = Bytes.make 500 'o' in
      let new_bytes = Bytes.copy old_bytes in
      List.iter (fun (i, v) -> Bytes.set new_bytes i (Char.chr v)) writes;
      let regions = Codec.diff_regions ~old_bytes ~new_bytes ~gap in
      let patched = Bytes.copy old_bytes in
      List.iter (fun (off, len) -> Bytes.blit new_bytes off patched off len) regions;
      Bytes.equal patched new_bytes)

let prop_diff_minimal_vs_whole =
  QCheck.Test.make ~name:"diffing never logs more than whole-page logging" ~count:100
    QCheck.(list (pair (int_bound 8191) (int_bound 255)))
    (fun writes ->
      let old_bytes = Bytes.make 8192 'o' in
      let new_bytes = Bytes.copy old_bytes in
      List.iter (fun (i, v) -> Bytes.set new_bytes i (Char.chr v)) writes;
      let regions = Codec.diff_regions ~old_bytes ~new_bytes ~gap:25 in
      let logged = Rec_buffer.log_bytes_of_regions regions in
      (writes = [] && logged = 0) || logged <= Esm.Wal.header_bytes + (2 * 8192))

(* Model-based property: a random interleaving of field updates,
   commits, aborts and cache resets against an in-memory model of the
   committed + pending state. *)
let prop_store_transaction_model =
  QCheck.Test.make ~name:"store agrees with transactional model" ~count:25
    QCheck.(list (pair (int_bound 49) (int_bound 9)))
    (fun ops ->
      let _server, st = mk () in
      build_list st ~n:50 ~per_cluster:10;
      let f_id = Store.field st ~cls:"Node" ~name:"id" in
      let f_next = Store.field st ~cls:"Node" ~name:"next" in
      let committed = Array.init 50 (fun i -> i) in
      let pending = Array.copy committed in
      let nodes st =
        let rec go p acc = if Store.is_null p then List.rev acc else go (Store.get_ptr st p f_next) (p :: acc) in
        Array.of_list (go (Store.root st "head") [])
      in
      Store.begin_txn st;
      let node_arr = ref (nodes st) in
      let ok = ref true in
      List.iter
        (fun (idx, action) ->
          match action with
          | 0 | 1 | 2 | 3 | 4 ->
            (* update node idx: id += action+1 *)
            let p = !node_arr.(idx) in
            Store.set_int st p f_id (Store.get_int st p f_id + action + 1);
            pending.(idx) <- pending.(idx) + action + 1
          | 5 | 6 ->
            Store.commit st;
            Array.blit pending 0 committed 0 50;
            Store.begin_txn st;
            node_arr := nodes st
          | 7 ->
            Store.abort st;
            Array.blit committed 0 pending 0 50;
            Store.begin_txn st;
            node_arr := nodes st
          | _ ->
            (* full cold restart between transactions *)
            Store.commit st;
            Array.blit pending 0 committed 0 50;
            Store.reset_caches st;
            Store.begin_txn st;
            node_arr := nodes st)
        ops;
      (* verify current (pending) state *)
      Array.iteri
        (fun i p -> if Store.get_int st p f_id <> pending.(i) then ok := false)
        !node_arr;
      Store.commit st;
      !ok)

let prop_walk_after_random_relocation =
  QCheck.Test.make ~name:"walk survives any relocation fraction" ~count:10
    QCheck.(float_bound_inclusive 1.0)
    (fun frac ->
      let config = { Qs_config.default with Qs_config.reloc = Qs_config.Continual frac } in
      let _server, st = mk ~config () in
      build_list st ~n:80 ~per_cluster:8;
      Store.reset_caches st;
      Store.begin_txn st;
      let n, ok = walk_list st in
      Store.commit st;
      n = 80 && ok)

(* --- QSan: the address-space sanitizer (Qs_config.sanitize) --- *)

let sanitize_config = { Qs_config.default with Qs_config.sanitize = true }

(* A full build / cold walk / update / commit cycle with the sanitizer
   validating at every fault and at commit must be violation-free. *)
let test_sanitize_clean_run () =
  let _server, st = mk ~config:sanitize_config () in
  build_list st ~n:120 ~per_cluster:12;
  Store.reset_caches st;
  Store.begin_txn st;
  let n, ok = walk_list st in
  Alcotest.(check int) "all nodes" 120 n;
  Alcotest.(check bool) "fields intact" true ok;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let head = Store.root st "head" in
  Store.set_int st head f_id 9999;
  Store.commit st;
  Store.validate st;
  Store.begin_txn st;
  Alcotest.(check int) "update durable" 9999 (Store.get_int st head f_id);
  Store.commit st

(* Same, under memory pressure: evictions and re-faults must keep the
   mapping table, pool residency and protection bits in agreement. *)
let test_sanitize_under_eviction () =
  let config = { sanitize_config with Qs_config.client_frames = 16 } in
  let _server, st = mk ~config () in
  build_list st ~n:400 ~per_cluster:10;
  Store.reset_caches st;
  for _ = 1 to 2 do
    Store.begin_txn st;
    let n, ok = walk_list st in
    Alcotest.(check int) "all nodes" 400 n;
    Alcotest.(check bool) "fields intact" true ok;
    Store.commit st
  done;
  Store.validate st

(* Injected corruption: escalate a read-protected frame to write
   access behind the store's back. QSan must flag the page as
   write-enabled-without-snapshot rather than let an unlogged update
   slip past commit diffing. *)
let test_sanitize_catches_prot_escalation () =
  let _server, st = mk ~config:sanitize_config () in
  build_list st ~n:60 ~per_cluster:10;
  Store.reset_caches st;
  Store.begin_txn st;
  ignore (walk_list st);
  let vm = Store.vm st in
  let victim = ref None in
  Vmsim.iter_mapped
    (fun ~frame ~prot -> if !victim = None && prot = Vmsim.Prot_read then victim := Some frame)
    vm;
  (match !victim with
   | None -> Alcotest.fail "no read-protected frame after walk"
   | Some frame ->
     Vmsim.set_prot_free vm ~frame Vmsim.Prot_write;
     (match Store.validate st with
      | () -> Alcotest.fail "escalation not caught"
      | exception Qs_util.Sanitizer.Sanitizer_violation v ->
        Alcotest.(check string) "check id" "prot-escalation" v.Qs_util.Sanitizer.check);
     (* Undo the corruption so commit still goes through cleanly. *)
     Vmsim.set_prot_free vm ~frame Vmsim.Prot_read;
     Store.validate st);
  Store.commit st

(* Callback locking at the store level: with [callback_locking] on the
   store registers with the server's copy table and stops dropping
   clean pages between transactions, so a re-walk in a later
   transaction touches the server zero times — mappings, swizzled
   state and buffer frames all survive — while QSan cross-checks every
   retained page against the server's bytes (in disk format, via the
   pre-ship canonicalization hook). *)
let test_callback_locking_retains_pages () =
  let config =
    { Qs_config.default with Qs_config.callback_locking = true; Qs_config.sanitize = true }
  in
  let server, st = mk ~config () in
  build_list st ~n:60 ~per_cluster:10;
  Store.begin_txn st;
  let count, ok = walk_list st in
  Alcotest.(check int) "cold walk sees all nodes" 60 count;
  Alcotest.(check bool) "cold walk intact" true ok;
  Store.commit st;
  let reads_before = (Server.counters server).Server.client_reads in
  Store.begin_txn st;
  let count, ok = walk_list st in
  Alcotest.(check int) "retained walk sees all nodes" 60 count;
  Alcotest.(check bool) "retained walk intact" true ok;
  Store.validate st;
  Store.commit st;
  Alcotest.(check int) "re-walk fetched nothing from the server" reads_before
    (Server.counters server).Server.client_reads

(* The commit-time shadow check itself: a region list that misses a
   modified byte must be rejected, the honest diff accepted. *)
let test_regions_cover_shadow () =
  let old_bytes = Bytes.make 256 'a' and new_bytes = Bytes.make 256 'a' in
  Bytes.set new_bytes 10 'x';
  Bytes.set new_bytes 200 'y';
  let regions = Codec.diff_regions ~old_bytes ~new_bytes ~gap:16 in
  Alcotest.(check bool) "honest diff covers" true
    (Codec.regions_cover ~old_bytes ~new_bytes regions);
  Alcotest.(check bool) "dropped region detected" false
    (Codec.regions_cover ~old_bytes ~new_bytes [ (10, 1) ]);
  Alcotest.(check bool) "empty diff of equal pages" true
    (Codec.regions_cover ~old_bytes:new_bytes ~new_bytes [])

let () =
  Alcotest.run "quickstore"
    [ ( "store"
      , [ Alcotest.test_case "create and walk" `Quick test_create_and_walk
        ; Alcotest.test_case "cold walk faults" `Quick test_cold_walk_faults
        ; Alcotest.test_case "static mapping across runs" `Quick test_static_mapping_across_runs
        ; Alcotest.test_case "update durable" `Quick test_update_commit_durable
        ; Alcotest.test_case "abort restores" `Quick test_abort_restores
        ; Alcotest.test_case "crash recovery" `Quick test_crash_recovery
        ; Alcotest.test_case "continual relocation" `Quick test_relocation_continual
        ; Alcotest.test_case "one-time relocation" `Quick test_relocation_one_time
        ; Alcotest.test_case "recovery-buffer overflow" `Quick test_rec_buffer_overflow
        ; Alcotest.test_case "paging (simplified clock)" `Quick test_paging_small_pool
        ; Alcotest.test_case "paging with updates" `Quick test_paging_with_updates
        ; Alcotest.test_case "large object" `Quick test_large_object
        ; Alcotest.test_case "large scan" `Quick test_large_scan
        ; Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip
        ; Alcotest.test_case "QS-B padding" `Quick test_qs_b_padding
        ; Alcotest.test_case "QS-W roundtrip" `Quick test_offsets_format_roundtrip
        ; Alcotest.test_case "QS-W updates" `Quick test_offsets_format_update
        ; Alcotest.test_case "QS-W paging" `Quick test_offsets_format_paging
        ; Alcotest.test_case "QS-W rejects relocation" `Quick test_offsets_rejects_relocation
        ; Alcotest.test_case "cost categories" `Quick test_cost_categories_charged
        ; Alcotest.test_case "diff regions" `Quick test_diff_regions ] )
    ; ( "qsan"
      , [ Alcotest.test_case "clean run validates" `Quick test_sanitize_clean_run
        ; Alcotest.test_case "clean under eviction" `Quick test_sanitize_under_eviction
        ; Alcotest.test_case "catches prot escalation" `Quick test_sanitize_catches_prot_escalation
        ; Alcotest.test_case "callback locking retains pages" `Quick
            test_callback_locking_retains_pages
        ; Alcotest.test_case "regions_cover shadow check" `Quick test_regions_cover_shadow ] )
    ; ( "properties"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_diff_patch_identity
          ; prop_diff_minimal_vs_whole
          ; prop_store_transaction_model
          ; prop_walk_after_random_relocation ]
      ) ]
