(* Crash/restart recovery tests: committed state survives, losers are
   undone, logical index records replay idempotently, a crash inside
   restart itself is recovered by the next restart, and a randomized
   crash-point property. *)

module Server = Esm.Server
module Client = Esm.Client
module Recovery = Esm.Recovery
module Btree = Esm.Btree
module Oid = Esm.Oid
module Clock = Simclock.Clock
module F = Qs_fault

let mk () =
  let s = Server.create ~frames:128 ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default () in
  (s, Client.create ~frames:32 s)

let reconnect s = Client.create ~frames:32 s

let mk_faulty () =
  let fault = F.create () in
  let s =
    Server.create ~frames:128 ~fault ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default ()
  in
  (fault, s, Client.create ~frames:32 s)

let test_committed_survives_crash () =
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string "durable!") in
  Client.commit c;
  Client.crash c;
  Server.crash s;
  let stats = Recovery.restart s in
  Alcotest.(check int) "no losers" 0 stats.Recovery.losers_undone;
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check bytes) "object back" (Bytes.of_string "durable!") (Client.read_object c oid);
  Client.commit c

let test_uncommitted_lost_after_crash () =
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.make 8 'a') in
  Client.commit c;
  (* Start an update but crash before commit; the dirty page never even
     reaches the server. *)
  Client.begin_txn c;
  Client.update_object c oid ~off:0 (Bytes.of_string "XXXX");
  Client.crash c;
  Server.crash s;
  ignore (Recovery.restart s);
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check char) "old value" 'a' (Bytes.get (Client.read_object c oid) 0);
  Client.commit c

let test_stolen_uncommitted_page_undone () =
  (* Force the dirty page to the server mid-transaction (tiny client
     pool), then crash: the update was logged and forced? No — only
     appended. Force the log by beginning commit... Instead: evict the
     page (ships it), force the log via an unrelated committing txn,
     then crash. Undo must restore the before-image. *)
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.make 8 'a') in
  Client.commit c;
  Client.begin_txn c;
  Client.update_object c oid ~off:0 (Bytes.of_string "XXXX");
  (* Ship the dirty page to the server (steal). *)
  (match Client.frame_of_page c oid.Oid.page with
   | Some frame -> Client.evict_page c ~frame
   | None -> Alcotest.fail "page not resident");
  (* An unrelated transaction commits, forcing the log (and thus the
     loser's update record). *)
  let c2 = reconnect s in
  Client.begin_txn c2;
  ignore (Client.create_object_new_page c2 (Bytes.make 8 'z'));
  Client.commit c2;
  Client.crash c;
  Server.crash s;
  let stats = Recovery.restart s in
  Alcotest.(check int) "one loser" 1 stats.Recovery.losers_undone;
  Alcotest.(check bool) "undo applied" true (stats.Recovery.loser_updates_undone > 0);
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check char) "before-image restored" 'a' (Bytes.get (Client.read_object c oid) 0);
  Client.commit c

let test_runtime_abort_then_crash () =
  (* A transaction aborted at runtime (with CLRs in the log) must stay
     aborted after restart. *)
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.make 8 'a') in
  Client.commit c;
  Client.begin_txn c;
  Client.update_object c oid ~off:0 (Bytes.of_string "XXXX");
  Client.abort c;
  Server.crash s;
  ignore (Recovery.restart s);
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check char) "aborted stays aborted" 'a' (Bytes.get (Client.read_object c oid) 0);
  Client.commit c

let test_restart_idempotent () =
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string "twice") in
  Client.commit c;
  Server.crash s;
  ignore (Recovery.restart s);
  Server.crash s;
  ignore (Recovery.restart s);
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check bytes) "still there" (Bytes.of_string "twice") (Client.read_object c oid);
  Client.commit c

let ikey = Btree.key_of_int ~klen:8
let oid_of_int i = Oid.make ~page:i ~slot:(i mod 100) ~unique:i ()

let test_index_recovery_committed () =
  let s, c = mk () in
  Client.begin_txn c;
  let t = Btree.create ~cap:4 c ~klen:8 in
  let root = Btree.root t in
  for i = 1 to 100 do
    Btree.insert t ~key:(ikey i) ~oid:(oid_of_int i)
  done;
  Client.commit c;
  Client.crash c;
  Server.crash s;
  let stats = Recovery.restart s in
  Alcotest.(check bool) "logical records replayed" true (stats.Recovery.logical_replayed >= 100);
  let c = reconnect s in
  Client.begin_txn c;
  let t = Btree.open_tree c ~root ~klen:8 in
  Alcotest.(check int) "all entries" 100 (Btree.cardinal t);
  Alcotest.(check bool) "invariants" true (Btree.invariants_hold t);
  Client.commit c

let test_index_recovery_loser_insert_removed () =
  let s, c = mk () in
  Client.begin_txn c;
  let t = Btree.create ~cap:4 c ~klen:8 in
  let root = Btree.root t in
  Btree.insert t ~key:(ikey 1) ~oid:(oid_of_int 1);
  Client.commit c;
  (* Loser inserts; log forced by another txn's commit; crash. *)
  Client.begin_txn c;
  let t = Btree.open_tree c ~root ~klen:8 in
  Btree.insert t ~key:(ikey 2) ~oid:(oid_of_int 2);
  let c2 = reconnect s in
  Client.begin_txn c2;
  ignore (Client.create_object_new_page c2 (Bytes.make 8 'z'));
  Client.commit c2;
  Client.crash c;
  Server.crash s;
  ignore (Recovery.restart s);
  let c = reconnect s in
  Client.begin_txn c;
  let t = Btree.open_tree c ~root ~klen:8 in
  Alcotest.(check bool) "committed entry present" true (Btree.lookup t ~key:(ikey 1) <> None);
  Alcotest.(check bool) "loser entry absent" true (Btree.lookup t ~key:(ikey 2) = None);
  Client.commit c

let test_crash_mid_commit_flush () =
  (* The commit flush is cut after one page ship: the commit record was
     never forced, so restart must roll the whole transaction back,
     including the page that did reach the server. *)
  let s, c = mk () in
  Client.begin_txn c;
  let oids = List.init 6 (fun i -> Client.create_object_new_page c (Bytes.make 64 (Char.chr (97 + i)))) in
  Client.commit c;
  Client.begin_txn c;
  List.iter (fun oid -> Client.update_object c oid ~off:0 (Bytes.of_string "MODIFIED")) oids;
  F.crash_at (Server.fault_injector s) ~point:F.Point.Commit_ship_page ~hit:2;
  (match Client.commit c with
   | () -> Alcotest.fail "expected injected crash"
   | exception F.Injected_crash _ -> ());
  F.disarm (Server.fault_injector s);
  Client.crash c;
  Server.crash s;
  ignore (Recovery.restart s);
  let c = reconnect s in
  Client.begin_txn c;
  List.iteri
    (fun i oid ->
      Alcotest.(check char)
        (Printf.sprintf "object %d rolled back" i)
        (Char.chr (97 + i))
        (Bytes.get (Client.read_object c oid) 0))
    oids;
  Client.commit c

(* Property: crash after a random number of commit-flush writes; the
   interrupted transaction must be invisible afterwards, whatever the
   cut point. *)
let prop_atomic_commit_any_cut =
  QCheck.Test.make ~name:"commit is atomic under any flush cut point" ~count:20
    QCheck.(int_bound 8)
    (fun cut ->
      let s, c = mk () in
      Client.begin_txn c;
      let oids =
        List.init 8 (fun _ -> Client.create_object_new_page c (Bytes.make 32 'o'))
      in
      Client.commit c;
      Client.begin_txn c;
      List.iter (fun oid -> Client.update_object c oid ~off:0 (Bytes.of_string "X")) oids;
      F.crash_at (Server.fault_injector s) ~point:F.Point.Commit_ship_page ~hit:(cut + 1);
      let crashed =
        match Client.commit c with () -> false | exception F.Injected_crash _ -> true
      in
      F.disarm (Server.fault_injector s);
      if crashed then begin
        Client.crash c;
        Server.crash s;
        ignore (Recovery.restart s)
      end;
      let c2 = reconnect s in
      Client.begin_txn c2;
      let all_old = List.for_all (fun oid -> Bytes.get (Client.read_object c2 oid) 0 = 'o') oids in
      let all_new = List.for_all (fun oid -> Bytes.get (Client.read_object c2 oid) 0 = 'X') oids in
      Client.commit c2;
      if crashed then all_old else all_new)

(* Property: N committed transactions each writing a distinct object,
   then a crash; every committed object must be intact afterwards. *)
let prop_committed_always_durable =
  QCheck.Test.make ~name:"every committed txn survives a crash" ~count:25
    QCheck.(pair (int_range 1 12) (int_range 1 400))
    (fun (ntxns, size) ->
      let s, c = mk () in
      let written =
        List.init ntxns (fun i ->
            Client.begin_txn c;
            let data = Bytes.make size (Char.chr (65 + (i mod 26))) in
            let oid = Client.create_object_new_page c data in
            Client.update_object c oid ~off:0 (Bytes.make 1 '!');
            Bytes.set data 0 '!';
            Client.commit c;
            (oid, data))
      in
      Client.crash c;
      Server.crash s;
      ignore (Recovery.restart s);
      let c = reconnect s in
      Client.begin_txn c;
      let ok = List.for_all (fun (oid, data) -> Bytes.equal (Client.read_object c oid) data) written in
      Client.commit c;
      ok)

(* Property: a random mix of committed and crashed-in-flight txns; the
   committed writes survive, the in-flight ones vanish. *)
let prop_losers_never_leak =
  QCheck.Test.make ~name:"loser updates never survive restart" ~count:25
    QCheck.(list bool)
    (fun commits ->
      let s, c = mk () in
      Client.begin_txn c;
      let oid = Client.create_object_new_page c (Bytes.make 64 '0') in
      Client.commit c;
      (* Each step updates byte i; committed steps keep their byte,
         the final uncommitted step must be rolled back. *)
      List.iteri
        (fun i commit ->
          if i < 63 then begin
            Client.begin_txn c;
            Client.update_object c oid ~off:i (Bytes.make 1 'C');
            if commit then Client.commit c else Client.abort c
          end)
        commits;
      Server.crash s;
      ignore (Recovery.restart s);
      let c = reconnect s in
      Client.begin_txn c;
      let b = Client.read_object c oid in
      let ok = ref true in
      List.iteri
        (fun i commit ->
          if i < 63 then begin
            let expected = if commit then 'C' else '0' in
            if Bytes.get b i <> expected then ok := false
          end)
        commits;
      Client.commit c;
      !ok)

(* --- crashes inside restart --- *)

(* The first restart is cut at [point]'s [hit]-th pass; the next,
   sanitized restart must finish the job, and a third must find no
   loser left. *)
let restart_cut_at fault s ~point ~hit =
  F.crash_at fault ~point ~hit;
  (match Recovery.restart ~sanitize:true s with
   | _ -> Alcotest.fail "the armed crash did not fire inside restart"
   | exception F.Injected_crash _ -> ());
  F.disarm fault;
  Server.crash s;
  let stats = Recovery.restart ~sanitize:true s in
  Server.crash s;
  let again = Recovery.restart ~sanitize:true s in
  Alcotest.(check int) "third restart undoes no loser" 0 again.Recovery.losers_undone;
  stats

(* A loser's three updates to one page are stolen and made durable by
   another transaction's commit; the crash leaves restart to undo them.
   Restart must log each compensation before its page reaches the
   disk, or a crash inside restart strands a page LSN the log never
   got (QSan lsn-monotone). *)
let test_crash_inside_restart ~point ~hit () =
  let fault, s, c = mk_faulty () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string "aaaaaaaa") in
  Client.commit c;
  Client.begin_txn c;
  List.iteri (fun off u -> Client.update_object c oid ~off (Bytes.of_string u)) [ "A"; "B"; "C" ];
  (match Client.frame_of_page c oid.Oid.page with
   | Some frame -> Client.evict_page c ~frame
   | None -> Alcotest.fail "page not resident");
  let c2 = reconnect s in
  Client.begin_txn c2;
  ignore (Client.create_object_new_page c2 (Bytes.make 8 'z'));
  Client.commit c2;
  Client.crash c;
  Server.crash s;
  ignore (restart_cut_at fault s ~point ~hit);
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check bytes) "loser undone" (Bytes.of_string "aaaaaaaa") (Client.read_object c oid);
  Client.commit c

(* A committed index insert whose commit flush was cut: restart replays
   it logically through its own client, whose commit flush is cut in
   turn. *)
let test_crash_in_restart_index_flush () =
  let fault, s, c = mk_faulty () in
  Client.begin_txn c;
  let t = Btree.create c ~klen:8 in
  let root = Btree.root t in
  Btree.insert t ~key:(ikey 1) ~oid:(oid_of_int 1);
  Client.commit c;
  Client.begin_txn c;
  let t = Btree.open_tree c ~root ~klen:8 in
  for i = 2 to 5 do
    Btree.insert t ~key:(ikey i) ~oid:(oid_of_int i)
  done;
  F.crash_at fault ~point:F.Point.Commit_mid_flush ~hit:1;
  (match Client.commit c with
   | () -> Alcotest.fail "the commit flush should crash"
   | exception F.Injected_crash _ -> ());
  Client.crash c;
  F.disarm fault;
  Server.crash s;
  let stats = restart_cut_at fault s ~point:F.Point.Commit_mid_flush ~hit:1 in
  Alcotest.(check bool) "inserts replayed" true (stats.Recovery.logical_replayed >= 4);
  let c = reconnect s in
  Client.begin_txn c;
  let t = Btree.open_tree c ~root ~klen:8 in
  Alcotest.(check int) "all entries" 5 (Btree.cardinal t);
  Alcotest.(check bool) "invariants" true (Btree.invariants_hold t);
  Client.commit c

(* --- QSan: sanitized restart --- *)

(* The standard crash scenario must be violation-free under
   [~sanitize:true]. *)
let test_sanitized_restart_clean () =
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string "durable!") in
  Client.commit c;
  Client.begin_txn c;
  Client.update_object c oid ~off:0 (Bytes.of_string "UPDATED!");
  Client.commit c;
  Client.crash c;
  Server.crash s;
  let stats = Recovery.restart ~sanitize:true s in
  Alcotest.(check int) "no losers" 0 stats.Recovery.losers_undone;
  let c = reconnect s in
  Client.begin_txn c;
  Alcotest.(check bytes) "object back" (Bytes.of_string "UPDATED!") (Client.read_object c oid);
  Client.commit c

(* Injected corruption: stamp a disk page with an LSN far beyond the
   end of the log (a write that never obeyed write-ahead ordering).
   Plain restart silently skips redo for it; sanitized restart must
   fail fast. *)
let test_sanitized_restart_catches_stale_lsn () =
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string "durable!") in
  Client.commit c;
  Client.crash c;
  Server.crash s;
  let disk = Server.disk s in
  let buf = Bytes.create Esm.Page.page_size in
  Esm.Disk.read disk oid.Oid.page buf;
  Qs_util.Codec.set_i64 buf 8 0x7FFF_0000_0000_0000L;
  Esm.Disk.write disk oid.Oid.page buf;
  (match Recovery.restart ~sanitize:true s with
   | _ -> Alcotest.fail "future page LSN not caught"
   | exception Qs_util.Sanitizer.Sanitizer_violation v ->
     Alcotest.(check string) "check id" "lsn-monotone" v.Qs_util.Sanitizer.check)

(* Two losers logging updates to one page is what strict 2PL rules out,
   and what undoing losers one at a time relies on; forge it below the
   lock manager and sanitized restart must refuse it. *)
let test_sanitized_restart_catches_shared_loser_page () =
  let s, c = mk () in
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string "durable!") in
  Client.commit c;
  let page = oid.Oid.page in
  List.iter
    (fun u ->
      let txn = Server.begin_txn s in
      ignore
        (Server.log_update s ~txn ~page ~off:64 ~old_data:(Bytes.of_string "-")
           ~new_data:(Bytes.of_string u)))
    [ "x"; "y" ];
  ignore (Esm.Wal.force (Server.wal s));
  Client.crash c;
  Server.crash s;
  match Recovery.restart ~sanitize:true s with
  | _ -> Alcotest.fail "two losers on one page not caught"
  | exception Qs_util.Sanitizer.Sanitizer_violation v ->
    Alcotest.(check string) "check id" "loser-disjoint" v.Qs_util.Sanitizer.check

let () =
  Alcotest.run "recovery"
    [ ( "recovery"
      , [ Alcotest.test_case "committed survives" `Quick test_committed_survives_crash
        ; Alcotest.test_case "uncommitted lost" `Quick test_uncommitted_lost_after_crash
        ; Alcotest.test_case "stolen page undone" `Quick test_stolen_uncommitted_page_undone
        ; Alcotest.test_case "runtime abort stays aborted" `Quick test_runtime_abort_then_crash
        ; Alcotest.test_case "restart idempotent" `Quick test_restart_idempotent
        ; Alcotest.test_case "index committed" `Quick test_index_recovery_committed
        ; Alcotest.test_case "index loser removed" `Quick test_index_recovery_loser_insert_removed
        ; Alcotest.test_case "crash mid commit flush" `Quick test_crash_mid_commit_flush ] )
    ; ( "in restart"
      , [ Alcotest.test_case "loser undo cut at commit.pre_log" `Quick
            (test_crash_inside_restart ~point:F.Point.Commit_pre_log ~hit:1)
        ; Alcotest.test_case "loser undo cut at abort.mid_undo" `Quick
            (test_crash_inside_restart ~point:F.Point.Abort_mid_undo ~hit:2)
        ; Alcotest.test_case "loser undo cut at wal.force_partial" `Quick
            (test_crash_inside_restart ~point:F.Point.Wal_force_partial ~hit:1)
        ; Alcotest.test_case "index replay cut at commit.mid_flush" `Quick
            test_crash_in_restart_index_flush ] )
    ; ( "qsan"
      , [ Alcotest.test_case "sanitized restart clean" `Quick test_sanitized_restart_clean
        ; Alcotest.test_case "catches future page LSN" `Quick
            test_sanitized_restart_catches_stale_lsn
        ; Alcotest.test_case "catches two losers on one page" `Quick
            test_sanitized_restart_catches_shared_loser_page ] )
    ; ( "properties"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_atomic_commit_any_cut; prop_committed_always_durable; prop_losers_never_leak ]
      ) ]
