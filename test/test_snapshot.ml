(* Snapshot-read (MVCC) tests: long scans holding one snapshot LSN
   against a stream of writer commits, [Snapshot_too_old] retry when
   reclamation outruns a snapshot, crash recovery at the two snapshot
   crash points, the mapped store's read-only mode, and the frozen
   frames that enforce it. *)

module Server = Esm.Server
module Client = Esm.Client
module Recovery = Esm.Recovery
module Version_store = Esm.Version_store
module F = Qs_fault
module Store = Quickstore.Store
module Clock = Simclock.Clock

let obj_len = 64

let value ~idx ~version =
  let tag = Printf.sprintf "snap-o%d-v%d." idx version in
  Bytes.init obj_len (fun i -> tag.[i mod String.length tag])

(* A server plus a writer and a reader client, with [nobj] objects on
   [nobj] distinct pages (one object per page, so every scan touches
   every page). *)
let mk_world ?fault ~nobj () =
  let clock = Clock.create () in
  let server = Server.create ~frames:64 ?fault ~clock ~cm:Simclock.Cost_model.default () in
  let writer = Client.create ~frames:16 server in
  let reader = Client.create ~frames:16 server in
  let oids =
    Array.init nobj (fun idx ->
        Client.with_txn writer (fun () -> Client.create_object_new_page writer (value ~idx ~version:0)))
  in
  Client.reset_cache writer;
  (server, writer, reader, oids)

(* --- a long scan holds its snapshot across 100+ writer commits --- *)

let test_long_scan_stability () =
  let nobj = 8 in
  let server, writer, reader, oids = mk_world ~nobj () in
  Server.set_versioning ~max_deltas:1024 server true;
  Client.with_snapshot_txn reader ~frames:16 ~sanitize:true (fun () ->
      (* Touch one page before the writer runs, so the scan mixes
         already-materialized frames with pages whose version chains
         grow underneath it. *)
      Alcotest.(check bytes) "pre-commit read" (value ~idx:0 ~version:0)
        (Client.snapshot_read_object reader oids.(0));
      (* 120 committed writer transactions, round-robin over every
         object: by the time the scan resumes, each page's chain holds
         many deltas the materialization must peel back through. *)
      for v = 1 to 120 do
        let idx = v mod nobj in
        Client.with_txn writer (fun () ->
            Client.update_object writer oids.(idx) ~off:0 (value ~idx ~version:v))
      done;
      (* The snapshot still sees the begin-time database, byte for
         byte — QSan is on, so the server is also replaying each
         materialized page from the WAL and comparing. *)
      Array.iteri
        (fun idx oid ->
          Alcotest.(check bytes)
            (Printf.sprintf "object %d as of snapshot" idx)
            (value ~idx ~version:0)
            (Client.snapshot_read_object reader oid))
        oids);
  Alcotest.(check int) "no retries needed" 0 (Client.snapshot_retries reader);
  (* Outside the snapshot, an ordinary locking read sees the tip. *)
  Client.with_txn reader (fun () ->
      Alcotest.(check bytes) "current read sees the tip" (value ~idx:0 ~version:120)
        (Client.read_object reader oids.(0)))

(* --- reclamation outruns the snapshot: Snapshot_too_old, retried --- *)

let test_too_old_retry () =
  let nobj = 2 in
  let server, writer, reader, oids = mk_world ~nobj () in
  (* A chain this short cannot absorb eight commits against one page:
     the oldest deltas are dropped and the old snapshot becomes
     unreachable. *)
  Server.set_versioning ~max_deltas:2 server true;
  let executions = ref 0 in
  let final =
    Client.with_snapshot_txn reader ~frames:8 ~sanitize:true ~max_attempts:4 (fun () ->
        incr executions;
        let a = Client.snapshot_read_object reader oids.(0) in
        (* Only the first execution grows page 1's chain past the
           bound; the body must be re-runnable, not re-run the world. *)
        if !executions = 1 then
          for v = 1 to 8 do
            Client.with_txn writer (fun () ->
                Client.update_object writer oids.(1) ~off:0 (value ~idx:1 ~version:v))
          done;
        (* First execution: page 2's chain no longer reaches back to
           our snapshot -> Snapshot_too_old -> the wrapper re-runs us
           at a fresh LSN. Second execution: both reads succeed. *)
        let b = Client.snapshot_read_object reader oids.(1) in
        (a, b))
  in
  Alcotest.(check int) "body ran twice" 2 !executions;
  Alcotest.(check int) "one reclamation retry" 1 (Client.snapshot_retries reader);
  (* The retried snapshot is fresh, so it sees the writer's tip. *)
  Alcotest.(check bytes) "retried read of page 1" (value ~idx:0 ~version:0) (fst final);
  Alcotest.(check bytes) "retried read of page 2" (value ~idx:1 ~version:8) (snd final)

let test_too_old_exhaustion () =
  let server, writer, reader, oids = mk_world ~nobj:2 () in
  Server.set_versioning ~max_deltas:1 server true;
  let vers = ref 0 in
  (* A body that overflows a chain it has not yet materialized on
     every execution can never finish: the wrapper must give up after
     [max_attempts] and let the exception out. *)
  match
    Client.with_snapshot_txn reader ~frames:4 ~max_attempts:2 (fun () ->
        ignore (Client.snapshot_read_object reader oids.(0));
        for _ = 1 to 4 do
          incr vers;
          let v = !vers in
          Client.with_txn writer (fun () ->
              Client.update_object writer oids.(1) ~off:0 (value ~idx:1 ~version:v))
        done;
        ignore (Client.snapshot_read_object reader oids.(1)))
  with
  | () -> Alcotest.fail "expected Snapshot_too_old to escape"
  | exception Version_store.Snapshot_too_old _ ->
    Alcotest.(check int) "both attempts consumed" 1 (Client.snapshot_retries reader);
    Alcotest.(check bool) "snapshot closed on failure" false (Client.in_snapshot reader)

(* --- in-flight writers: the stable image comes from their log records --- *)

let frame_of writer oid =
  match Client.frame_of_page writer oid.Esm.Oid.page with
  | Some f -> f
  | None -> Alcotest.fail "page not cached by the writer"

(* A writer updates one object twice, then its dirty page is stolen
   mid-transaction: the server's copy holds the second (uncommitted)
   version. A snapshot must roll the page back through both records to
   the committed bytes, where the older before-image wins — rolling
   back only the newer record would expose the first update. *)
let test_stolen_page_in_flight () =
  let server, writer, reader, oids = mk_world ~nobj:2 () in
  Server.set_versioning server true;
  Client.with_txn writer (fun () ->
      Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:1));
  Client.begin_txn writer;
  Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:2);
  Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:3);
  let writes = (Server.counters server).Server.client_writes in
  Client.evict_page writer ~frame:(frame_of writer oids.(0));
  Alcotest.(check int) "the dirty page was shipped" (writes + 1)
    (Server.counters server).Server.client_writes;
  Client.with_snapshot_txn reader ~frames:8 ~sanitize:true (fun () ->
      Alcotest.(check bytes) "snapshot sees the last committed bytes" (value ~idx:0 ~version:1)
        (Client.snapshot_read_object reader oids.(0)));
  Client.commit writer;
  Client.with_snapshot_txn reader ~frames:8 ~sanitize:true (fun () ->
      Alcotest.(check bytes) "a fresh snapshot sees the second update" (value ~idx:0 ~version:3)
        (Client.snapshot_read_object reader oids.(0)))

let chain_shape server page =
  Option.map
    (fun c -> (List.length c.Version_store.deltas, c.Version_store.stable_lsn))
    (Server.version_chain server page)

let test_abort_leaves_chain () =
  let server, writer, reader, oids = mk_world ~nobj:2 () in
  Server.set_versioning server true;
  Client.with_txn writer (fun () ->
      Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:1));
  let page0 = oids.(0).Esm.Oid.page and page1 = oids.(1).Esm.Oid.page in
  let before = chain_shape server page0 in
  Alcotest.(check bool) "the committed update made a chain" true (before <> None);
  Client.begin_txn writer;
  Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:2);
  Client.update_object writer oids.(1) ~off:0 (value ~idx:1 ~version:2);
  Client.evict_page writer ~frame:(frame_of writer oids.(0));
  Client.evict_page writer ~frame:(frame_of writer oids.(1));
  Client.abort writer;
  Alcotest.(check bool) "chain of the shipped page unchanged" true
    (chain_shape server page0 = before);
  Alcotest.(check bool) "no chain for the page with none" true (chain_shape server page1 = None);
  Client.with_snapshot_txn reader ~frames:8 ~sanitize:true (fun () ->
      Alcotest.(check bytes) "object 0 as committed" (value ~idx:0 ~version:1)
        (Client.snapshot_read_object reader oids.(0));
      Alcotest.(check bytes) "object 1 as committed" (value ~idx:1 ~version:0)
        (Client.snapshot_read_object reader oids.(1)))

(* A crash forgets every transaction: once versioning is back on, no
   transaction record left over from before the crash may pose as the
   in-flight writer of a page (it would roll a later commit back). *)
let test_crash_forgets_writers () =
  let server, writer, reader, oids = mk_world ~nobj:2 () in
  Server.set_versioning server true;
  Client.begin_txn writer;
  Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:1);
  Client.evict_page writer ~frame:(frame_of writer oids.(0));
  Alcotest.(check int) "one writer in flight" 1 (Server.active_txns server);
  Client.crash writer;
  Client.crash reader;
  Server.crash server;
  Alcotest.(check int) "no transaction after the crash" 0 (Server.active_txns server);
  ignore (Recovery.restart ~sanitize:true server);
  Alcotest.(check int) "none after restart" 0 (Server.active_txns server);
  Server.set_versioning server true;
  Client.with_txn writer (fun () ->
      Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:2));
  Client.with_snapshot_txn reader ~frames:8 ~sanitize:true (fun () ->
      Alcotest.(check bytes) "snapshot sees the post-crash commit" (value ~idx:0 ~version:2)
        (Client.snapshot_read_object reader oids.(0)))

(* QSan's snapshot-replay oracle: a commit that ships a byte no Update
   record covers, on a page that already has a chain, leaves a
   materialized page the WAL replay cannot reproduce. *)
let test_qsan_unlogged_byte () =
  let server, writer, reader, oids = mk_world ~nobj:1 () in
  Server.set_versioning server true;
  Client.with_txn writer (fun () ->
      Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:1));
  let page = oids.(0).Esm.Oid.page in
  Alcotest.(check bool) "page has a chain" true (Server.version_chain server page <> None);
  Client.with_txn writer (fun () ->
      let frame = Client.fix_page writer ~kind:Server.Data page in
      Client.lock_page writer page Esm.Lock_mgr.Exclusive;
      let b = Client.page_bytes writer ~frame in
      let off = Esm.Page.page_size / 2 in
      Bytes.set b off (Char.chr ((Char.code (Bytes.get b off) + 1) land 0xff));
      Client.mark_dirty writer ~frame;
      Client.unfix_page writer ~frame);
  match
    Client.with_snapshot_txn reader ~frames:8 ~sanitize:true (fun () ->
        Client.snapshot_read_object reader oids.(0))
  with
  | _ -> Alcotest.fail "expected QSan to reject the unlogged byte"
  | exception Qs_util.Sanitizer.Sanitizer_violation v ->
    Alcotest.(check string) "check" "snapshot-replay" v.Qs_util.Sanitizer.check

(* --- crash recovery at the snapshot crash points --- *)

let crash_exn = function
  | F.Injected_crash _ | Server.Server_down -> true
  | _ -> false

(* Shared tail: take the crash, restart with QSan, and prove the
   committed world is intact and versioning comes back clean. *)
let recover_and_check ~server ~writer ~reader ~oids ~expect =
  Client.crash writer;
  Client.crash reader;
  Server.crash server;
  ignore (Recovery.restart ~sanitize:true server);
  Array.iteri
    (fun idx oid ->
      Alcotest.(check bytes)
        (Printf.sprintf "object %d after restart" idx)
        (expect idx)
        (Client.with_txn reader (fun () -> Client.read_object reader oid)))
    oids;
  (* Version chains are volatile: a restart drops them with versioning
     itself. Re-enabled, the snapshot path works immediately. *)
  Alcotest.(check bool) "versioning off after restart" true (Server.version_stats server = None);
  Server.set_versioning server true;
  Client.with_snapshot_txn reader ~frames:8 ~sanitize:true (fun () ->
      Array.iteri
        (fun idx oid ->
          Alcotest.(check bytes)
            (Printf.sprintf "object %d post-restart snapshot" idx)
            (expect idx)
            (Client.snapshot_read_object reader oid))
        oids)

let test_crash_at_materialize () =
  let fault = F.create () in
  let server, writer, reader, oids = mk_world ~fault ~nobj:3 () in
  Server.set_versioning server true;
  (* One committed update so the read below has a chain to walk. *)
  Client.with_txn writer (fun () ->
      Client.update_object writer oids.(0) ~off:0 (value ~idx:0 ~version:1));
  F.arm fault { F.no_faults with F.crash_point = Some (F.Point.Snapshot_materialize, 1) };
  (match
     Client.with_snapshot_txn reader ~frames:8 (fun () ->
         ignore (Client.snapshot_read_object reader oids.(0)))
   with
  | () -> Alcotest.fail "expected the injected crash to fire"
  | exception e when crash_exn e -> ());
  F.disarm fault;
  recover_and_check ~server ~writer ~reader ~oids ~expect:(fun idx ->
      value ~idx ~version:(if idx = 0 then 1 else 0))

let test_crash_at_trim () =
  let fault = F.create () in
  let server, writer, reader, oids = mk_world ~fault ~nobj:3 () in
  Server.set_versioning server true;
  (* Committed updates build the deltas the reclamation pass will be
     mid-way through dropping when the crash fires. *)
  for v = 1 to 3 do
    Client.with_txn writer (fun () ->
        Client.update_object writer oids.(v mod 3) ~off:0 (value ~idx:(v mod 3) ~version:v))
  done;
  F.arm fault { F.no_faults with F.crash_point = Some (F.Point.Snapshot_trim, 1) };
  (match Server.trim_versions server with
  | () -> Alcotest.fail "expected the injected crash to fire"
  | exception e when crash_exn e -> ());
  F.disarm fault;
  recover_and_check ~server ~writer ~reader ~oids ~expect:(fun idx ->
      value ~idx ~version:(if idx = 0 then 3 else idx))

(* --- the mapped store's read-only mode --- *)

let node_def =
  Schema.class_def "Node" [ ("id", Schema.F_int); ("next", Schema.F_ptr); ("tag", Schema.F_chars 12) ]

let mk_store () =
  let server =
    Server.create ~frames:512 ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default ()
  in
  let st = Store.create_db ~config:Quickstore.Qs_config.default server in
  Store.register_class st node_def;
  (server, st)

let build_list st ~n ~per_cluster =
  Store.begin_txn st;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  let cluster = ref (Store.new_cluster st) in
  let first = ref Store.null in
  let prev = ref Store.null in
  for i = 0 to n - 1 do
    if i mod per_cluster = 0 then cluster := Store.new_cluster st;
    let p = Store.create st ~cls:"Node" ~cluster:!cluster in
    Store.set_int st p f_id i;
    if Store.is_null !prev then first := p else Store.set_ptr st !prev f_next p;
    prev := p
  done;
  Store.set_root st "head" !first;
  Store.commit st

let walk st ~head =
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  let f_next = Store.field st ~cls:"Node" ~name:"next" in
  let rec go p i ok =
    if Store.is_null p then (i, ok)
    else go (Store.get_ptr st p f_next) (i + 1) (ok && Store.get_int st p f_id = i)
  in
  go head 0 true

(* The root directory reads through locked server objects, so the
   entry pointer is resolved in an ordinary transaction up front; the
   snapshot body then navigates pure VM pointers. *)
let resolve_head st =
  Store.begin_txn st;
  let head = Store.root st "head" in
  Store.commit st;
  head

let test_store_snapshot_read () =
  let server, st = mk_store () in
  build_list st ~n:40 ~per_cluster:8;
  Server.set_versioning server true;
  let head = resolve_head st in
  let count, ok =
    Store.with_snapshot_read st ~frames:32 (fun () ->
        Alcotest.(check bool) "in_snapshot inside the body" true (Store.in_snapshot st);
        walk st ~head)
  in
  Alcotest.(check int) "all nodes scanned" 40 count;
  Alcotest.(check bool) "fields as of the snapshot" true ok;
  Alcotest.(check bool) "snapshot closed" false (Store.in_snapshot st);
  (* The store still updates normally after a snapshot body. *)
  Store.begin_txn st;
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  Store.set_int st head f_id 4242;
  Store.commit st;
  Store.begin_txn st;
  Alcotest.(check int) "post-snapshot update visible" 4242 (Store.get_int st head f_id);
  Store.commit st

let test_store_snapshot_write_rejected () =
  let server, st = mk_store () in
  build_list st ~n:10 ~per_cluster:5;
  Server.set_versioning server true;
  let head = resolve_head st in
  let f_id = Store.field st ~cls:"Node" ~name:"id" in
  match Store.with_snapshot_read st ~frames:16 (fun () -> Store.set_int st head f_id 99) with
  | () -> Alcotest.fail "a write inside a snapshot body must not succeed"
  | exception Store.Snapshot_write _ ->
    Alcotest.(check bool) "snapshot closed after rejection" false (Store.in_snapshot st);
    (* The rejected write left no trace. *)
    Store.begin_txn st;
    Alcotest.(check int) "value untouched" 0 (Store.get_int st head f_id);
    Store.commit st

(* --- frozen frames (the VM mechanism underneath) --- *)

let test_vmsim_freeze () =
  let vm = Vmsim.create ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default () in
  Vmsim.map vm ~frame:2 ~buf:(Bytes.make Vmsim.frame_size 'q');
  Vmsim.set_prot vm ~frame:2 Vmsim.Prot_read;
  Vmsim.freeze vm ~frame:2;
  Alcotest.(check bool) "frozen" true (Vmsim.frozen vm ~frame:2);
  Alcotest.(check int) "reads pass through a frozen frame" (Char.code 'q')
    (Vmsim.read_u8 vm (2 * Vmsim.frame_size));
  (* The guard rejects protection {e escalation}: no code path — fault
     handler included — can make a frozen frame writable, so a raw
     write can only ever end in an unhandled write fault. *)
  (match Vmsim.set_prot vm ~frame:2 Vmsim.Prot_write with
  | () -> Alcotest.fail "escalating a frozen frame must raise"
  | exception Vmsim.Frozen_frame { frame } -> Alcotest.(check int) "faulting frame" 2 frame);
  (match Vmsim.write_u8 vm (2 * Vmsim.frame_size) 65 with
  | () -> Alcotest.fail "write to a frozen read-only frame must fault"
  | exception Vmsim.Unhandled_fault { access = Vmsim.Write; _ } -> ());
  (* Downgrades stay legal (the snapshot teardown path uses them). *)
  Vmsim.set_prot vm ~frame:2 Vmsim.Prot_none;
  Vmsim.set_prot vm ~frame:2 Vmsim.Prot_read;
  Vmsim.unfreeze vm ~frame:2;
  Alcotest.(check bool) "thawed" false (Vmsim.frozen vm ~frame:2);
  Vmsim.set_prot vm ~frame:2 Vmsim.Prot_write;
  Vmsim.write_u8 vm (2 * Vmsim.frame_size) 65;
  Alcotest.(check int) "writable after unfreeze" 65 (Vmsim.read_u8 vm (2 * Vmsim.frame_size))

let () =
  Alcotest.run "snapshot"
    [ ( "esm"
      , [ Alcotest.test_case "long scan vs 120 writer commits" `Quick test_long_scan_stability
        ; Alcotest.test_case "Snapshot_too_old retried at fresh LSN" `Quick test_too_old_retry
        ; Alcotest.test_case "retry exhaustion surfaces" `Quick test_too_old_exhaustion
        ; Alcotest.test_case "crash at snapshot.materialize" `Quick test_crash_at_materialize
        ; Alcotest.test_case "crash at snapshot.trim" `Quick test_crash_at_trim
        ; Alcotest.test_case "stolen page of an in-flight writer" `Quick test_stolen_page_in_flight
        ; Alcotest.test_case "abort leaves the chain" `Quick test_abort_leaves_chain
        ; Alcotest.test_case "crash forgets in-flight writers" `Quick test_crash_forgets_writers
        ; Alcotest.test_case "QSan: unlogged byte in a commit" `Quick test_qsan_unlogged_byte ] )
    ; ( "store"
      , [ Alcotest.test_case "with_snapshot_read scan" `Quick test_store_snapshot_read
        ; Alcotest.test_case "writes rejected in a body" `Quick test_store_snapshot_write_rejected ] )
    ; ( "vmsim"
      , [ Alcotest.test_case "frozen frames" `Quick test_vmsim_freeze ] ) ]
