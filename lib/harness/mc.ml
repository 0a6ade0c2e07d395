(* Multi-user contention benchmark: N simulated clients on one ESM
   server under the deterministic scheduler (lib/sched), hammering a
   small object world with hot-page skew.

   This is the OO7 multi-user shape — §6 of the paper leaves
   multi-client QuickStore to future work, so the workload here is the
   contention substrate, not a paper figure: most transactions touch a
   small hot set of pages (readers crossing into other clients'
   write partitions), so S/X conflicts, blocking lock waits, wound
   deadlock aborts and client retries all occur at a measurable rate
   while every page keeps a single writer-owner.

   Everything derives from the seed. Same seed, byte-identical
   schedule: the committed BENCH_oo7_multi.json baseline pins the
   commit/retry/wait counts AND the md5 of the Chrome trace, so any
   drift in the interleaving itself — not just the totals — fails the
   bench-shape gate.

   Two cache-consistency regimes, selected per run: with
   [callbacks:false] (the default, byte-identical to the historical
   baseline) client caches are dropped at every transaction start —
   without callback locking an inter-transaction cached page could
   serve stale bytes once another client commits to it. With
   [callbacks:true] every client registers with the server's
   callback-locking protocol instead: clean pages survive across
   transactions (QSan verifies each retained hit byte-exact against
   the server), the server recalls pages from other holders before
   exclusive grants, and recall delivery is charged traffic — part of
   the deterministic interleaving and therefore of the trace
   digest. *)

module F = Qs_fault
module Server = Esm.Server
module Client = Esm.Client
module Oid = Esm.Oid
module Page = Esm.Page
module Rng = Qs_util.Rng
module Clock = Simclock.Clock
module Category = Simclock.Category

type client_stats = {
  cs_name : string;
  cs_committed : int;
  cs_retries : int;  (* deadlock/timeout aborts that were re-run *)
}

type stats = {
  clients : int;
  seed : int;
  txns_per_client : int;
  committed : int;
  deadlock_retries : int;
  lock_waits : int;  (* Lock_wait charge events *)
  lock_wait_ms : float;
  retry_ms : float;
  total_ms : float;
  reads : int;  (* server read RPCs over the contended phase *)
  writes : int;
  per_client : client_stats list;
  trace_events : int;
  trace_digest : string;  (* md5 of the Chrome trace: pins the interleaving *)
  callbacks : bool;  (* cache regime: callback locking vs reset-per-txn *)
  retained_hits : int;  (* clean hits on pages cached in an earlier txn (all clients) *)
  callbacks_sent : int;  (* server recalls issued before exclusive grants *)
  callbacks_deferred : int;  (* recalls deferred (page busy at the holder) *)
  gc_rides : int;  (* log forces riding the in-flight group-commit write *)
  gc_cross_rides : int;  (* rides committed by a different client than the force owner *)
  read_pct : int;  (* % of transactions that are read-only scans (0 = legacy mix) *)
  snapshot : bool;  (* read regime: MVCC snapshot bodies vs locking read txns *)
  read_txns : int;  (* read-only scans committed (all clients) *)
  snapshot_reads : int;  (* pages materialized as-of-LSN at the server *)
  snapshot_deltas : int;  (* undo deltas applied across those reads *)
  snapshot_retries : int;  (* scan bodies re-run by Snapshot_too_old reclamation *)
  world_digest : string;
      (* md5 of every object's final committed bytes (server-authoritative,
         uncharged): writer partitions are disjoint, so the two read
         regimes must leave byte-identical worlds *)
}

let obj_len = 96
let objs_per_page = 4

let value ~seed ~idx ~version =
  let tag = Printf.sprintf "mc%d-o%d-v%d." seed idx version in
  Bytes.init obj_len (fun i -> tag.[i mod String.length tag])

(* Skewed pick: [hot_pct]% of draws land uniformly in the hot prefix,
   the rest uniformly anywhere. *)
let pick_skewed rng ~hot ~n ~hot_pct =
  if Rng.int rng 100 < hot_pct then Rng.int rng hot else Rng.int rng n

let distinct_picks ~k ~pick =
  let picked = ref [] in
  let guard = ref 0 in
  while List.length !picked < k && !guard < 1000 do
    incr guard;
    let idx = pick () in
    if not (List.mem idx !picked) then picked := idx :: !picked
  done;
  List.rev !picked

(* [read_pct] > 0 adds a read-heavy regime: that percentage of each
   client's transactions become read-only scans of [scan_len] skewed
   objects (crossing freely into other clients' write partitions — the
   reader/writer contention the snapshot machinery exists to remove).
   [snapshot] selects the scan mechanism: [false] runs scans as
   ordinary locking transactions (S locks, waits-for graph, wound
   retries); [true] runs them as MVCC snapshot bodies
   ({!Client.with_snapshot_txn}) — no page locks, no recalls. The rng
   draw sequence is identical in both regimes and writes stay in
   disjoint per-client partitions, so both must end with byte-identical
   worlds ([world_digest]). [read_pct = 0] (the default) is
   byte-identical to the historical mix. *)
let scan_len = 8

let run ?(clients = 2) ?(txns_per_client = 18) ?(seed = 42) ?(callbacks = false)
    ?(read_pct = 0) ?(snapshot = false) () =
  if clients < 1 then invalid_arg "Mc.run: clients must be >= 1";
  if read_pct < 0 || read_pct > 100 then invalid_arg "Mc.run: read_pct must be in 0..100";
  if snapshot && read_pct = 0 then invalid_arg "Mc.run: snapshot requires read_pct > 0";
  let cm = Simclock.Cost_model.default in
  let clock = Clock.create () in
  let server = Server.create ~frames:128 ~clock ~cm () in
  (* Callback mode also turns on group commit: with inter-transaction
     caching, different clients' commits land close enough for their
     forces to ride one window (the cross-client batching the copy
     table era is meant to exercise). *)
  if callbacks then Server.set_group_commit server true;
  let cls = Array.init clients (fun c -> ignore c; Client.create ~frames:12 server) in
  (* World: [pages] pages x [objs_per_page] objects, built single-client
     by client 0. The first two pages are the hot set. *)
  let pages = 12 in
  let nobj = pages * objs_per_page in
  let hot = 2 * objs_per_page in
  let oids = Array.make nobj None in
  Client.with_txn cls.(0) (fun () ->
      for p = 0 to pages - 1 do
        let page_id, frame = Client.new_page cls.(0) ~kind:Esm.Page.Small_obj in
        Client.unfix_page cls.(0) ~frame;
        for s = 0 to objs_per_page - 1 do
          let idx = (p * objs_per_page) + s in
          let v = value ~seed ~idx ~version:0 in
          oids.(idx) <-
            Some
              (match Client.create_object cls.(0) ~page_id v with
               | Some oid -> oid
               | None -> Client.create_object_new_page cls.(0) v)
        done
      done);
  let oid idx = match oids.(idx) with Some o -> o | None -> invalid_arg "Mc.run: no oid" in
  Client.reset_cache cls.(0);
  (* Registration happens after the cold reset, so the contended phase
     starts from an empty cache either way; the QSan retained-page
     crosscheck is armed on every client. *)
  if callbacks then Array.iter (fun cl -> Client.enable_callbacks ~sanitize:true cl) cls;
  (* Snapshot regime: version chains start accumulating at the
     contended phase's first commit. QSan's WAL-replay crosscheck rides
     every materialized page (it observes, charging nothing). *)
  if snapshot then Server.set_versioning server true;
  (* Contended phase: fresh counters, a trace sink armed for the
     digest, and one task per client. The sink is disarmed on the way
     out, after the digest, also when a task died: an armed sink stays
     reachable from Qs_trace's registry with every event it recorded. *)
  Server.reset_counters server;
  let before = Clock.snapshot clock in
  let sink = Qs_trace.create ~clock () in
  Qs_trace.arm sink;
  Fun.protect ~finally:(fun () -> Qs_trace.disarm sink) @@ fun () ->
  let committed = Array.make clients 0 in
  let retries = Array.make clients 0 in
  let scans = Array.make clients 0 in
  let sched = Sched.create ~seed ~clocks:[ clock ] () in
  for c = 0 to clients - 1 do
    Sched.spawn sched ~name:(Printf.sprintf "client-%d" c) (fun () ->
        let cl = cls.(c) in
        let rng = Rng.create ((seed * 131) + (c * 17) + 7) in
        for i = 1 to txns_per_client do
          (* Writes stay in this client's partition (idx mod clients);
             reads range over everyone's, skewed to the hot pages, so
             contention is read-write and deadlocks are S->X cycles. *)
          let own p = (p - (p mod clients) + c) mod nobj in
          (* The scan draw short-circuits at read_pct = 0, so the legacy
             mix consumes exactly the historical rng sequence. *)
          let scan = read_pct > 0 && Rng.int rng 100 < read_pct in
          if scan then begin
            (* Read-only scan over everyone's partitions, hot-skewed:
               under locking this queues behind (and wounds against)
               the writers; under snapshot it touches no lock at all. *)
            let rd =
              distinct_picks ~k:scan_len ~pick:(fun () ->
                  pick_skewed rng ~hot ~n:nobj ~hot_pct:60)
            in
            if snapshot then
              Client.with_snapshot_txn ~frames:32 ~sanitize:true ~max_attempts:8 cl
                (fun () ->
                  List.iter (fun idx -> ignore (Client.snapshot_read_object cl (oid idx))) rd)
            else begin
              if not callbacks then Client.reset_cache cl;
              Client.with_txn_retrying ~max_attempts:8
                ~on_retry:(fun ~attempt:_ ->
                  retries.(c) <- retries.(c) + 1;
                  if not callbacks then Client.reset_cache cl)
                cl
                (fun () ->
                  List.iter (fun idx -> ignore (Client.read_object cl (oid idx))) rd)
            end;
            scans.(c) <- scans.(c) + 1
          end
          else begin
            let wr =
              distinct_picks ~k:2 ~pick:(fun () -> own (pick_skewed rng ~hot ~n:nobj ~hot_pct:50))
            in
            let rd = distinct_picks ~k:3 ~pick:(fun () -> pick_skewed rng ~hot ~n:nobj ~hot_pct:60) in
            let rd = List.filter (fun idx -> not (List.mem idx wr)) rd in
            (* Reset-per-txn regime only: under callback locking, clean
               pages stay hot across transactions and across deadlock
               retries (an abort already dropped the dirty ones). *)
            if not callbacks then Client.reset_cache cl;
            Client.with_txn_retrying ~max_attempts:8
              ~on_retry:(fun ~attempt:_ ->
                retries.(c) <- retries.(c) + 1;
                if not callbacks then Client.reset_cache cl)
              cl
              (fun () ->
                List.iter (fun idx -> ignore (Client.read_object cl (oid idx))) rd;
                List.iter
                  (fun idx ->
                    Client.update_object cl (oid idx) ~off:0
                      (value ~seed ~idx ~version:((i * clients) + c)))
                  wr)
          end;
          committed.(c) <- committed.(c) + 1
        done)
  done;
  let outcomes = Sched.run sched in
  List.iter
    (fun (name, e) ->
      match e with
      | None -> ()
      | Some e -> raise (Invalid_argument (Printf.sprintf "Mc.run: task %s died: %s" name (Printexc.to_string e))))
    outcomes;
  let snap = Clock.since clock before in
  let counters = Server.counters server in
  (* Server-authoritative world digest, read uncharged after the run:
     peeked pages draw no counters, charges or injected faults, so the
     digest can never perturb the schedule it certifies. *)
  let world_digest =
    let buf = Buffer.create (nobj * obj_len) in
    let peeked = Hashtbl.create 16 in
    for idx = 0 to nobj - 1 do
      let o = oid idx in
      let bytes =
        match Hashtbl.find_opt peeked o.Oid.page with
        | Some b -> b
        | None ->
          let b = Bytes.create Page.page_size in
          Server.peek_page server o.Oid.page b;
          Hashtbl.replace peeked o.Oid.page b;
          b
      in
      Buffer.add_bytes buf (Page.read_slot (Page.attach bytes) o.Oid.slot)
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  { clients
  ; seed
  ; txns_per_client
  ; committed = Array.fold_left ( + ) 0 committed
  ; deadlock_retries = Array.fold_left ( + ) 0 retries
  ; lock_waits = Clock.snap_category_events snap Category.Lock_wait
  ; lock_wait_ms = Clock.snap_category_us snap Category.Lock_wait /. 1000.0
  ; retry_ms = Clock.snap_category_us snap Category.Retry /. 1000.0
  ; total_ms = Clock.snap_total_ms snap
  ; reads = counters.Server.client_reads
  ; writes = counters.Server.client_writes
  ; per_client =
      List.init clients (fun c ->
          { cs_name = Printf.sprintf "client-%d" c
          ; cs_committed = committed.(c)
          ; cs_retries = retries.(c) })
  ; trace_events = Qs_trace.length sink
  ; trace_digest = Digest.to_hex (Digest.string (Qs_trace.to_chrome sink))
  ; callbacks
  ; retained_hits =
      Array.fold_left
        (fun acc cl -> acc + (Client.callback_stats cl).Client.retained_hits)
        0 cls
  ; callbacks_sent = counters.Server.callbacks_sent
  ; callbacks_deferred = counters.Server.callbacks_deferred
  ; gc_rides = counters.Server.gc_rides
  ; gc_cross_rides = counters.Server.gc_cross_rides
  ; read_pct
  ; snapshot
  ; read_txns = Array.fold_left ( + ) 0 scans
  ; snapshot_reads = counters.Server.snapshot_reads
  ; snapshot_deltas = counters.Server.snapshot_deltas_applied
  ; snapshot_retries = Array.fold_left (fun acc cl -> acc + Client.snapshot_retries cl) 0 cls
  ; world_digest }
