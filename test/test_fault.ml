(* Qs_fault tests: plan parsing, disarmed bit-identity, crash-point
   firing and halt semantics, typed I/O exceptions, client retry /
   degradation under transient faults, crash outcomes (loser vs winner,
   torn write, partial log force); the torture harness's crash-point
   table covers the registry, one schedule per point. *)

module F = Qs_fault
module Server = Esm.Server
module Client = Esm.Client
module Recovery = Esm.Recovery
module Disk = Esm.Disk
module Clock = Simclock.Clock
module Category = Simclock.Category
module Torture = Harness.Torture

let mk ?(frames = 128) () =
  let fault = F.create () in
  let s = Server.create ~frames ~fault ~clock:(Clock.create ()) ~cm:Simclock.Cost_model.default () in
  (fault, s, Client.create ~frames:32 s)

let reconnect s = Client.create ~frames:32 s
let point = Alcotest.testable (fun ppf p -> Format.pp_print_string ppf (F.Point.name p)) ( = )

let setup_object c data =
  Client.begin_txn c;
  let oid = Client.create_object_new_page c (Bytes.of_string data) in
  Client.commit c;
  oid

let read_back s oid =
  let c = reconnect s in
  Client.with_txn c (fun () -> Bytes.to_string (Client.read_object c oid))

(* --- plan parsing --- *)

let test_plan_of_spec () =
  let p = F.plan_of_spec ~seed:9 "disk=0.01,drop=0.05,crash=commit.mid_flush:2" in
  Alcotest.(check (float 1e-9)) "disk both ways" 0.01 p.F.disk_read_p;
  Alcotest.(check (float 1e-9)) "disk write too" 0.01 p.F.disk_write_p;
  Alcotest.(check (float 1e-9)) "drop" 0.05 p.F.net_drop_p;
  (match p.F.crash_point with
   | Some (pt, 2) -> Alcotest.check point "point" F.Point.Commit_mid_flush pt
   | _ -> Alcotest.fail "crash point not parsed");
  Alcotest.(check int) "seed" 9 p.F.rng_seed;
  let q = F.plan_of_spec ~seed:0 "disk_read=0.5,delay=0.1,delay_us=5000" in
  Alcotest.(check (float 1e-9)) "read only" 0.5 q.F.disk_read_p;
  Alcotest.(check (float 1e-9)) "write untouched" 0.0 q.F.disk_write_p;
  Alcotest.(check (float 1e-9)) "delay us" 5000.0 q.F.net_delay_us;
  let invalid spec =
    match F.plan_of_spec ~seed:0 spec with
    | _ -> Alcotest.fail (spec ^ " should be rejected")
    | exception Invalid_argument _ -> ()
  in
  invalid "bogus=1";
  invalid "crash=not.a.point:1";
  invalid "drop=banana";
  invalid "crash=commit.mid_flush"

let test_point_registry () =
  Alcotest.(check int) "seventeen points" 17 (List.length F.Point.all);
  Alcotest.(check int) "seventeen distinct names" 17
    (List.length (List.sort_uniq String.compare (List.map F.Point.name F.Point.all)));
  List.iter
    (fun p ->
      Alcotest.(check (option point)) (F.Point.name p) (Some p) (F.Point.of_name (F.Point.name p)))
    F.Point.all;
  Alcotest.(check (option point)) "unregistered name" None (F.Point.of_name "not.registered")

(* --- disarmed = inert --- *)

let test_disarmed_noop () =
  let t = F.create () in
  Alcotest.(check bool) "disarmed" false (F.armed t);
  F.hit t F.Point.Commit_pre_log;
  Alcotest.(check bool) "ok gate" true (F.disk_gate t ~op:F.Read ~page:3 = F.Io_ok);
  Alcotest.(check bool) "ok net" true (F.net_gate t ~op:"read" ~page:3 = F.Net_ok);
  Alcotest.(check int) "no counts" 0 (F.hit_count t F.Point.Commit_pre_log);
  Alcotest.(check bool) "nothing fired" true (F.fired t = None)

let run_workload ~arm_no_faults () =
  let fault, s, c = mk () in
  if arm_no_faults then F.arm fault { F.no_faults with F.rng_seed = 5 };
  let oids = Array.init 6 (fun i -> setup_object c (Printf.sprintf "object-%04d" i)) in
  for round = 1 to 4 do
    Client.with_txn c (fun () ->
        Array.iteri
          (fun i oid ->
            if (i + round) mod 2 = 0 then
              Client.update_object c oid ~off:0
                (Bytes.of_string (Printf.sprintf "rd-%03d-%03d" round i)))
          oids)
  done;
  Server.checkpoint s;
  Clock.total_us (Server.clock s)

let test_armed_no_faults_bit_identical () =
  Alcotest.(check (float 0.0)) "same simulated time" (run_workload ~arm_no_faults:false ())
    (run_workload ~arm_no_faults:true ())

(* --- crash firing and halt --- *)

let test_crash_fires_at_exact_hit () =
  let fault, s, c = mk () in
  let oid = setup_object c "aaaa" in
  F.crash_at fault ~point:F.Point.Commit_pre_log ~hit:2;
  Client.with_txn c (fun () -> Client.update_object c oid ~off:0 (Bytes.of_string "bbbb"));
  (match
     Client.with_txn c (fun () -> Client.update_object c oid ~off:0 (Bytes.of_string "cccc"))
   with
  | () -> Alcotest.fail "second commit should crash"
  | exception F.Injected_crash { point = p; hit } ->
    Alcotest.check point "point" F.Point.Commit_pre_log p;
    Alcotest.(check int) "hit" 2 hit);
  Alcotest.(check bool) "fired" true (F.fired fault = Some (F.Point.Commit_pre_log, 2));
  Alcotest.(check bool) "halted" true (F.halted fault);
  (* A dead server answers nothing. *)
  let c2 = reconnect s in
  (match Client.begin_txn c2 with
   | () -> Alcotest.fail "halted server accepted a transaction"
   | exception Server.Server_down -> ());
  Client.crash c;
  F.disarm fault;
  Server.crash s;
  Alcotest.(check bool) "crash clears halt" false (F.halted fault);
  ignore (Recovery.restart ~sanitize:true s);
  Alcotest.(check string) "first update committed, second lost" "bbbb" (read_back s oid)

(* --- typed exceptions on caller bugs --- *)

let test_typed_exceptions () =
  let _, s, c = mk () in
  let disk = Server.disk s in
  let buf = Bytes.create Esm.Page.page_size in
  (match Disk.read disk 9_999 buf with
   | () -> Alcotest.fail "unallocated read accepted"
   | exception Disk.Bad_page { op; page } ->
     Alcotest.(check string) "op" "read" op;
     Alcotest.(check int) "page" 9_999 page);
  (match Server.read_page s ~txn:777 ~kind:Server.Data 0 buf with
   | () -> Alcotest.fail "bad txn accepted"
   | exception Server.Bad_txn { txn; _ } -> Alcotest.(check int) "txn" 777 txn);
  ignore c

(* --- transient faults: retry until success --- *)

let test_transient_disk_reads_retried () =
  let fault, s, c = mk () in
  let oid = setup_object c "sturdy" in
  Server.reset_cache s;
  let c = reconnect s in
  F.arm fault { F.no_faults with F.disk_read_p = 0.4; rng_seed = 11 };
  Alcotest.(check string) "read survives transients" "sturdy"
    (Client.with_txn c (fun () -> Bytes.to_string (Client.read_object c oid)));
  Alcotest.(check bool) "transients were injected" true (F.transients_injected fault > 0);
  Alcotest.(check bool) "backoff charged to Retry" true
    (Clock.category_us (Server.clock s) Category.Retry > 0.0)

let test_net_drop_dup_delay () =
  let fault, s, c = mk () in
  let oid = setup_object c "netty!" in
  (* Duplicated delivery is idempotent. *)
  Server.reset_cache s;
  let c = reconnect s in
  F.arm fault { F.no_faults with F.net_dup_p = 1.0; rng_seed = 3 };
  Alcotest.(check string) "dup" "netty!"
    (Client.with_txn c (fun () -> Bytes.to_string (Client.read_object c oid)));
  (* Delay charges simulated time but delivers. *)
  F.disarm fault;
  Server.reset_cache s;
  let c = reconnect s in
  let before = Clock.category_us (Server.clock s) Category.Retry in
  F.arm fault { F.no_faults with F.net_delay_p = 1.0; net_delay_us = 1234.0; rng_seed = 3 };
  Alcotest.(check string) "delay" "netty!"
    (Client.with_txn c (fun () -> Bytes.to_string (Client.read_object c oid)));
  Alcotest.(check bool) "delay charged" true
    (Clock.category_us (Server.clock s) Category.Retry >= before +. 1234.0);
  (* Dropped messages retry (timeout charged) until delivered. *)
  F.disarm fault;
  Server.reset_cache s;
  let c = reconnect s in
  F.arm fault { F.no_faults with F.net_drop_p = 0.5; rng_seed = 7 };
  Alcotest.(check string) "drop" "netty!"
    (Client.with_txn c (fun () -> Bytes.to_string (Client.read_object c oid)));
  Alcotest.(check bool) "timeouts injected" true (F.transients_injected fault > 0)

let test_degraded_after_retry_budget () =
  let fault, s, c = mk () in
  let oid = setup_object c "gone" in
  Server.reset_cache s;
  let c = reconnect s in
  F.arm fault { F.no_faults with F.net_drop_p = 1.0; rng_seed = 1 };
  (match Client.attempt (fun () -> Client.with_txn c (fun () -> Client.read_object c oid)) with
   | Ok _ -> Alcotest.fail "100% drop cannot succeed"
   | Error d ->
     Alcotest.(check int) "all attempts used" Client.max_retries d.Client.attempts;
     Alcotest.(check bool) "typed cause" true
       (match d.Client.cause with F.Net_error _ -> true | _ -> false));
  (* The store is still intact: disarm and read again. *)
  F.disarm fault;
  Client.crash c;
  Alcotest.(check string) "data intact after degradation" "gone" (read_back s oid)

(* --- crash outcomes around the commit protocol --- *)

let crash_commit_then_restart ~point ~data =
  let fault, s, c = mk () in
  let oid = setup_object c "origin!" in
  F.crash_at fault ~point ~hit:1;
  (match Client.with_txn c (fun () -> Client.update_object c oid ~off:0 (Bytes.of_string data)) with
   | () -> Alcotest.fail "commit should crash"
   | exception F.Injected_crash _ -> ());
  Client.crash c;
  F.disarm fault;
  Server.crash s;
  ignore (Recovery.restart ~sanitize:true s);
  read_back s oid

let test_pre_flush_is_loser () =
  Alcotest.(check string) "commit not forced: old value" "origin!"
    (crash_commit_then_restart ~point:F.Point.Commit_pre_flush ~data:"changed")

let test_mid_flush_is_winner () =
  Alcotest.(check string) "commit forced: redo wins" "changed"
    (crash_commit_then_restart ~point:F.Point.Commit_mid_flush ~data:"changed")

let test_torn_write_repaired_by_redo () =
  Alcotest.(check string) "torn page write: header old, redo reapplies" "changed"
    (crash_commit_then_restart ~point:F.Point.Disk_torn_write ~data:"changed")

let test_partial_log_force_is_atomic () =
  (* Two objects updated in one transaction; the log force is cut
     partway. Whatever prefix survives, recovery must keep the
     transaction atomic: both objects old or both new. *)
  let outcome seed =
    let fault, s, c = mk () in
    let a = setup_object c "aaaa" and b = setup_object c "bbbb" in
    F.arm fault
      { F.no_faults with F.crash_point = Some (F.Point.Wal_force_partial, 1); rng_seed = seed };
    (match
       Client.with_txn c (fun () ->
           Client.update_object c a ~off:0 (Bytes.of_string "AAAA");
           Client.update_object c b ~off:0 (Bytes.of_string "BBBB"))
     with
    | () -> Alcotest.fail "force should crash"
    | exception F.Injected_crash _ -> ());
    Client.crash c;
    F.disarm fault;
    Server.crash s;
    ignore (Recovery.restart ~sanitize:true s);
    match (read_back s a, read_back s b) with
    | "aaaa", "bbbb" -> `Old
    | "AAAA", "BBBB" -> `New
    | va, vb -> Alcotest.fail (Printf.sprintf "not atomic: %s / %s" va vb)
  in
  (* Different seeds cut the force at different points; all must be
     atomic whichever way they land. *)
  ignore (List.map outcome [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* --- torture harness --- *)

(* [Torture.table] is a total match on the point, so every point has a
   row; a point listed twice in [Point.all] would take two seeds of
   every sweep's rotation. *)
let test_torture_table () =
  List.iter
    (fun p ->
      let name = F.Point.name p in
      Alcotest.(check int) (name ^ " listed once") 1
        (List.length (List.filter (( = ) p) F.Point.all));
      Alcotest.(check bool) (name ^ " row can fire") true ((Torture.table p).Torture.bound >= 1))
    F.Point.all

let test_torture_one_seed_per_point () =
  let n = List.length F.Point.all in
  let s = Torture.run_range ~first:0 ~count:n () in
  Alcotest.(check (list string)) "no failed schedule" []
    (List.filter_map (fun o -> o.Torture.failure) s.Torture.failed);
  List.iter
    (fun (p, scheduled, _) -> Alcotest.(check int) (F.Point.name p ^ " scheduled once") 1 scheduled)
    s.Torture.coverage

let () =
  Alcotest.run "fault"
    [ ( "plan"
      , [ Alcotest.test_case "plan_of_spec" `Quick test_plan_of_spec
        ; Alcotest.test_case "point registry" `Quick test_point_registry ] )
    ; ( "inert"
      , [ Alcotest.test_case "disarmed hooks are no-ops" `Quick test_disarmed_noop
        ; Alcotest.test_case "armed no_faults is bit-identical" `Quick
            test_armed_no_faults_bit_identical ] )
    ; ( "crash"
      , [ Alcotest.test_case "fires at exact hit, halts server" `Quick test_crash_fires_at_exact_hit
        ; Alcotest.test_case "pre-flush crash loses the txn" `Quick test_pre_flush_is_loser
        ; Alcotest.test_case "mid-flush crash keeps the txn" `Quick test_mid_flush_is_winner
        ; Alcotest.test_case "torn write repaired by redo" `Quick test_torn_write_repaired_by_redo
        ; Alcotest.test_case "partial log force stays atomic" `Quick
            test_partial_log_force_is_atomic ] )
    ; ( "transient"
      , [ Alcotest.test_case "typed Bad_page / Bad_txn" `Quick test_typed_exceptions
        ; Alcotest.test_case "disk read transients retried" `Quick test_transient_disk_reads_retried
        ; Alcotest.test_case "net drop/dup/delay" `Quick test_net_drop_dup_delay
        ; Alcotest.test_case "degrades after retry budget" `Quick test_degraded_after_retry_budget ] )
    ; ( "torture"
      , [ Alcotest.test_case "one table row per crash point" `Quick test_torture_table
        ; Alcotest.test_case "one seed per crash point" `Quick test_torture_one_seed_per_point ] ) ]
