(* The adaptive diff-shipping commit: region ships must change costs,
   never results — equal reads, far fewer shipped bytes on sparse
   writes, cheaper commits — fall back to whole pages on dense writes,
   stay idempotent under duplicated/retried deliveries, and recover to
   the old state when a region apply is torn by a crash. *)

module Store = Quickstore.Store
module Qs_config = Quickstore.Qs_config
module Server = Esm.Server
module Client = Esm.Client
module Buf_pool = Esm.Buf_pool
module Recovery = Esm.Recovery
module Oid = Esm.Oid
module Clock = Simclock.Clock
module F = Qs_fault

let node_def =
  Schema.class_def "Node" [ ("id", Schema.F_int); ("next", Schema.F_ptr); ("tag", Schema.F_chars 12) ]

(* Fat payload for the dense-write fallback: updating every [pad] on a
   page modifies most of its bytes. *)
let wide_def =
  Schema.class_def "Wide" [ ("id", Schema.F_int); ("next", Schema.F_ptr); ("pad", Schema.F_chars 64) ]

let mk ?(config = Qs_config.default) () =
  let fault = F.create () in
  let server =
    Server.create ~frames:512 ~fault ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default ()
  in
  let st = Store.create_db ~config server in
  Store.register_class st node_def;
  Store.register_class st wide_def;
  (fault, server, st)

let build_list st ~cls ~n ~per_cluster =
  Store.begin_txn st;
  let f_id = Store.field st ~cls ~name:"id" in
  let f_next = Store.field st ~cls ~name:"next" in
  let cluster = ref (Store.new_cluster st) in
  let first = ref Store.null in
  let prev = ref Store.null in
  for i = 0 to n - 1 do
    if i mod per_cluster = 0 then cluster := Store.new_cluster st;
    let p = Store.create st ~cls ~cluster:!cluster in
    Store.set_int st p f_id i;
    if Store.is_null !prev then first := p else Store.set_ptr st !prev f_next p;
    prev := p
  done;
  Store.set_root st "head" !first;
  Store.commit st

(* Sum of ids down the list (the cross-config result). *)
let read_sum st ~cls =
  let f_id = Store.field st ~cls ~name:"id" in
  let f_next = Store.field st ~cls ~name:"next" in
  Store.begin_txn st;
  let rec go p acc = if Store.is_null p then acc else go (Store.get_ptr st p f_next) (acc + Store.get_int st p f_id) in
  let s = go (Store.root st "head") 0 in
  Store.commit st;
  s

(* One transaction bumping every [stride]th node's id: a few bytes
   modified on each of many pages — the diff-shipping sweet spot. *)
let sparse_update st =
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.begin_txn st;
  let rec go p i =
    if not (Store.is_null p) then begin
      if i mod 5 = 0 then Store.set_int st p f_id (10_000 + i);
      go (Store.get_ptr st p f_next) (i + 1)
    end
  in
  go (Store.root st "head") 0;
  Store.commit st

let run_sparse config =
  let _fault, _server, st = mk ~config () in
  build_list st ~cls:"Node" ~n:200 ~per_cluster:10;
  Store.reset_stats st;
  let clock = Store.clock st in
  let us0 = Clock.total_us clock in
  sparse_update st;
  let us = Clock.total_us clock -. us0 in
  (Store.stats st, us, read_sum st ~cls:"Node")

let test_off_by_default () =
  Alcotest.(check bool) "diff_ship off by default" false Qs_config.default.Qs_config.diff_ship;
  let s, _, _ = run_sparse Qs_config.default in
  Alcotest.(check int) "off: no region ships" 0 s.Store.pages_region_shipped;
  Alcotest.(check int) "off: no fallbacks" 0 s.Store.pages_ship_fallback

let test_sparse_savings () =
  let s0, us0, sum0 = run_sparse Qs_config.default in
  let s1, us1, sum1 = run_sparse { Qs_config.default with Qs_config.diff_ship = true } in
  Alcotest.(check int) "same result" sum0 sum1;
  Alcotest.(check bool) "pages region-shipped" true (s1.Store.pages_region_shipped > 0);
  Alcotest.(check int) "same pages diffed" s0.Store.pages_diffed s1.Store.pages_diffed;
  let whole_equiv = s1.Store.pages_region_shipped * Esm.Page.page_size in
  Alcotest.(check bool)
    (Printf.sprintf "ship bytes drop >= 5x (%d whole-equiv vs %d shipped)" whole_equiv
       s1.Store.region_bytes_shipped)
    true
    (s1.Store.region_bytes_shipped * 5 <= whole_equiv);
  Alcotest.(check bool)
    (Printf.sprintf "sparse update cheaper (%.0f < %.0f us)" us1 us0)
    true (us1 < us0)

let test_sanitize_crosscheck () =
  (* QSan compares the patched server page against the client's image
     on every region ship; any divergence raises. *)
  let s, _, _ =
    run_sparse { Qs_config.default with Qs_config.diff_ship = true; Qs_config.sanitize = true }
  in
  Alcotest.(check bool) "region ships under sanitize" true (s.Store.pages_region_shipped > 0)

let test_dense_fallback () =
  let config = { Qs_config.default with Qs_config.diff_ship = true } in
  let _fault, _server, st = mk ~config () in
  build_list st ~cls:"Wide" ~n:200 ~per_cluster:200;
  Store.reset_stats st;
  let f_pad = Store.field st ~cls:"Wide" ~name:"pad" in
  let f_next = Store.field st ~cls:"Wide" ~name:"next" in
  Store.begin_txn st;
  let rec go p i =
    if not (Store.is_null p) then begin
      Store.set_chars st p f_pad (Printf.sprintf "rewritten-%d" i);
      go (Store.get_ptr st p f_next) (i + 1)
    end
  in
  go (Store.root st "head") 0;
  Store.commit st;
  let s = Store.stats st in
  Alcotest.(check bool)
    (Printf.sprintf "dense pages fall back to whole-page ships (%d)" s.Store.pages_ship_fallback)
    true
    (s.Store.pages_ship_fallback > 0);
  Alcotest.(check bool) "list intact" true (read_sum st ~cls:"Wide" = 199 * 200 / 2)

let test_clean_rewrite_skipped () =
  (* Writing back the bytes a page already holds leaves nothing to log
     or ship: the dirty bit clears without any server traffic. *)
  let config = { Qs_config.default with Qs_config.diff_ship = true } in
  let _fault, _server, st = mk ~config () in
  build_list st ~cls:"Node" ~n:40 ~per_cluster:10;
  Store.reset_stats st;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  Store.begin_txn st;
  let rec go p =
    if not (Store.is_null p) then begin
      Store.set_int st p f_id (Store.get_int st p f_id);
      go (Store.get_ptr st p f_next)
    end
  in
  go (Store.root st "head");
  Store.commit st;
  let s = Store.stats st in
  Alcotest.(check bool) "write-faulted pages skipped" true (s.Store.pages_ship_skipped > 0);
  Alcotest.(check int) "nothing region-shipped" 0 s.Store.pages_region_shipped

(* ------------------------------------------------------------------ *)
(* ESM-level idempotency and crash behavior.                           *)

let mk_esm () =
  let fault = F.create () in
  let server =
    Server.create ~frames:64 ~fault ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default ()
  in
  (fault, server, Client.create ~frames:8 server)

(* Four regions covering the whole page, so the patched server copy
   equals the client copy whatever base the server held. *)
let quarters b =
  List.init 4 (fun i ->
      let q = Bytes.length b / 4 in
      let off = i * q in
      let len = if i = 3 then Bytes.length b - off else q in
      (off, Bytes.sub b off len))

let test_duplicate_delivery_applied_once () =
  let fault, server, client = mk_esm () in
  let oid =
    Client.with_txn client (fun () -> Client.create_object_new_page client (Bytes.make 64 'a'))
  in
  (* Every message duplicated: the server sees each region ship twice
     with the same sequence number and must patch once. *)
  F.arm fault { F.no_faults with F.net_dup_p = 1.0; F.rng_seed = 7 };
  Client.begin_txn client;
  Client.update_object client oid ~off:0 (Bytes.make 16 'b');
  let page_id = oid.Oid.page in
  let frame = match Client.frame_of_page client page_id with Some f -> f | None -> Alcotest.fail "page not resident" in
  let b = Client.page_bytes client ~frame in
  let c0 = (Server.counters server).Server.client_region_ships in
  Client.ship_regions client ~page_id ~check:(Bytes.copy b) (quarters b);
  Buf_pool.clear_dirty (Client.pool client) frame;
  let c1 = (Server.counters server).Server.client_region_ships in
  Alcotest.(check int) "patched exactly once under duplication" 1 (c1 - c0);
  F.disarm fault;
  Client.commit client;
  let got = Client.with_txn client (fun () -> Client.read_object client oid) in
  Alcotest.(check string) "committed bytes survive"
    (Bytes.to_string (Bytes.cat (Bytes.make 16 'b') (Bytes.make 48 'a')))
    (Bytes.to_string got)

let test_duplicate_seq_direct () =
  let _fault, server, client = mk_esm () in
  let oid =
    Client.with_txn client (fun () -> Client.create_object_new_page client (Bytes.make 64 'a'))
  in
  Client.begin_txn client;
  let txn = Client.txn_id client in
  let region = [ (4096, Bytes.make 16 'z') ] in
  let c0 = Server.counters server in
  let n0 = c0.Server.client_region_ships and b0 = c0.Server.region_bytes_shipped in
  Server.apply_regions server ~txn ~seq:42 oid.Oid.page region;
  Server.apply_regions server ~txn ~seq:42 oid.Oid.page region;
  let c1 = Server.counters server in
  Alcotest.(check int) "same seq applies once" 1 (c1.Server.client_region_ships - n0);
  Alcotest.(check int) "bytes counted once" 16 (c1.Server.region_bytes_shipped - b0);
  Server.apply_regions server ~txn ~seq:43 oid.Oid.page region;
  let c2 = Server.counters server in
  Alcotest.(check int) "fresh seq applies" 2 (c2.Server.client_region_ships - n0);
  Client.abort client

let test_region_torn_crash_recovers_old () =
  let fault, server, client = mk_esm () in
  let old_v = Bytes.make 64 'a' in
  let oid = Client.with_txn client (fun () -> Client.create_object_new_page client old_v) in
  Server.checkpoint server;
  F.arm fault { F.no_faults with F.crash_point = Some (F.Point.Commit_region_torn, 1); F.rng_seed = 3 };
  Client.begin_txn client;
  Client.update_object client oid ~off:0 (Bytes.make 64 'n');
  let page_id = oid.Oid.page in
  let frame = match Client.frame_of_page client page_id with Some f -> f | None -> Alcotest.fail "page not resident" in
  let b = Client.page_bytes client ~frame in
  (match Client.ship_regions client ~page_id (quarters b) with
   | () -> Alcotest.fail "expected the torn-region crash to fire"
   | exception _ -> ());
  Client.crash client;
  F.disarm fault;
  Server.crash server;
  ignore (Recovery.restart ~sanitize:true server);
  let got = Client.with_txn client (fun () -> Client.read_object client oid) in
  Alcotest.(check string) "torn region ship recovers to the old value" (Bytes.to_string old_v)
    (Bytes.to_string got)

(* ------------------------------------------------------------------ *)
(* Buf_pool free list (the O(1) free_frame satellite).                 *)

let test_free_list () =
  let p = Buf_pool.create ~frames:4 in
  Alcotest.(check (option int)) "ascending after create" (Some 0) (Buf_pool.free_frame p);
  Buf_pool.install p ~frame:0 ~page_id:10;
  Alcotest.(check (option int)) "next lowest" (Some 1) (Buf_pool.free_frame p);
  Buf_pool.install p ~frame:2 ~page_id:12;
  Alcotest.(check (option int)) "skips occupied" (Some 1) (Buf_pool.free_frame p);
  Buf_pool.install p ~frame:1 ~page_id:11;
  Alcotest.(check (option int)) "last empty" (Some 3) (Buf_pool.free_frame p);
  Buf_pool.install p ~frame:3 ~page_id:13;
  Alcotest.(check (option int)) "full pool" None (Buf_pool.free_frame p);
  Buf_pool.evict p 2;
  Alcotest.(check (option int)) "evicted frame comes back" (Some 2) (Buf_pool.free_frame p);
  Buf_pool.evict p 0;
  Alcotest.(check (option int)) "most recently evicted first" (Some 0) (Buf_pool.free_frame p);
  Buf_pool.install p ~frame:0 ~page_id:14;
  Alcotest.(check (option int)) "LIFO pops back" (Some 2) (Buf_pool.free_frame p);
  Buf_pool.clear p;
  Alcotest.(check (option int)) "clear resets ascending" (Some 0) (Buf_pool.free_frame p);
  Alcotest.(check int) "clear empties the pool" 0 (Buf_pool.occupied p)

let () =
  Alcotest.run "diffship"
    [ ( "store"
      , [ Alcotest.test_case "off by default" `Quick test_off_by_default
        ; Alcotest.test_case "sparse savings" `Quick test_sparse_savings
        ; Alcotest.test_case "sanitize crosscheck" `Quick test_sanitize_crosscheck
        ; Alcotest.test_case "dense fallback" `Quick test_dense_fallback
        ; Alcotest.test_case "clean rewrite skipped" `Quick test_clean_rewrite_skipped ] )
    ; ( "esm"
      , [ Alcotest.test_case "duplicate delivery applied once" `Quick
            test_duplicate_delivery_applied_once
        ; Alcotest.test_case "duplicate seq direct" `Quick test_duplicate_seq_direct
        ; Alcotest.test_case "torn region crash recovers old" `Quick
            test_region_torn_crash_recovers_old ] )
    ; ("buf_pool", [ Alcotest.test_case "O(1) free list" `Quick test_free_list ]) ]
