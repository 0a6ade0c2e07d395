(* Crash-point torture harness.

   One seed = one deterministic schedule: a small object world, a
   stream of update transactions laced with transient disk/network
   faults, and a scheduled crash at one registered Qs_fault point
   (chosen by [seed mod |points|], so any contiguous seed range covers
   the whole registry). When the crash fires, the harness takes it —
   [Client.crash], [Server.crash], [Recovery.restart ~sanitize:true]
   armed to crash at a drawn point and rerun if it does — and checks
   the full read-back against a model kept in ordinary OCaml values:

   - objects untouched by the in-flight transaction must be bitwise
     intact;
   - the in-flight transaction must be atomic: all-old or all-new,
     with the direction pinned down wherever the crash point
     determines it (e.g. [commit.pre_flush] is a loser,
     [commit.post_flush] a winner).

   [table], a total match, gives each crash point its regime (scheduled
   or log-index, both on one server), the bound its firing hit is
   drawn from and the direction its in-flight transaction must take;
   every regime runs through one skeleton, [run_schedule].
   Scheduled schedules run 2-4 clients under the deterministic
   scheduler (rotating with the seed; [--clients N] pins N, 1 included),
   so the crash also lands amid blocking lock waits, wound-wait
   deadlock aborts and client retries.

   Everything — world, workload, fault plan — derives from the seed,
   so a failing schedule reproduces from its printed one-line repro. *)

module F = Qs_fault
module Server = Esm.Server
module Client = Esm.Client
module Lock_mgr = Esm.Lock_mgr
module Recovery = Esm.Recovery
module Buf_pool = Esm.Buf_pool
module Rng = Qs_util.Rng
module Clock = Simclock.Clock

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let repro ~seed ~clients =
  Printf.sprintf "qs_torture --first-seed %d --seeds 1 --clients %d" seed clients

type outcome = {
  seed : int;
  point : F.Point.t;  (* the armed crash point *)
  clients : int;  (* concurrent clients in the schedule (1 for log-index) *)
  fired : bool;
  restart_crash : (F.Point.t * bool) option;  (* point armed in the first restart; fired? *)
  txns : int;  (* transactions attempted before the crash *)
  transients : int;  (* transient faults injected (and retried) *)
  failure : string option;  (* None = schedule survived all checks *)
}

(* ------------------------------------------------------------------ *)
(* Common pieces.                                                      *)

let obj_len = 64

let value ~seed ~idx ~version =
  let tag = Printf.sprintf "s%d-o%d-v%d." seed idx version in
  Bytes.init obj_len (fun i -> tag.[i mod String.length tag])

let transient_plan ~seed =
  { F.no_faults with
    F.disk_read_p = 0.03
  ; disk_write_p = 0.02
  ; net_drop_p = 0.04
  ; net_dup_p = 0.03
  ; net_delay_p = 0.04
  ; net_delay_us = 20_000.0
  ; rng_seed = seed }

let read_all client oids = Client.with_txn client (fun () -> Array.map (Client.read_object client) oids)

let check_intact ~seed ~what ~model ~skip reads =
  Array.iteri
    (fun i v ->
      if (not (List.mem i skip)) && not (Bytes.equal v model.(i)) then
        failf "seed %d: %s: object %d corrupted (got %S, expected %S)" seed what i
          (Bytes.to_string v) (Bytes.to_string model.(i)))
    reads

(* Atomicity check on the in-flight transaction's objects; the model
   takes the new values when they survived. *)
let check_in_flight ~seed ~what ~model ~expect in_flight reads =
  match in_flight with
  | [] -> ()
  | _ ->
    let dir_of (idx, newv) =
      if Bytes.equal reads.(idx) model.(idx) then `Old
      else if Bytes.equal reads.(idx) newv then `New
      else
        failf "seed %d: %s: object %d is neither old nor new (%S)" seed what idx
          (Bytes.to_string reads.(idx))
    in
    let dirs = List.map dir_of in_flight in
    let first = List.hd dirs in
    List.iter
      (fun d ->
        if d <> first then failf "seed %d: %s: in-flight transaction not atomic" seed what)
      dirs;
    (match (expect, first) with
     | `Either, _ -> ()
     | `Old, `Old | `New, `New -> ()
     | `Old, `New ->
       failf "seed %d: %s: transaction should have been lost but its updates survived" seed what
     | `New, `Old ->
       failf "seed %d: %s: committed transaction lost its updates" seed what);
    if first = `New then List.iter (fun (idx, newv) -> model.(idx) <- newv) in_flight

(* Exceptions that end a client's transaction loop: the crash and the
   retry exhaustions that stand for it, and, once the crash is in, a
   deadlock retry exhaustion in the post-crash drain window. *)
let ends_loop ~crashed = function
  | F.Injected_crash _ | F.Io_error _ | F.Net_error _ | Client.Degraded _ | Server.Server_down ->
    true
  | Lock_mgr.Deadlock _ -> crashed
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The schedule skeleton.                                              *)

(* Where the in-flight transaction must land after the restart. *)
type direction = [ `Old | `New | `Either ]

(* One row of the crash-point table. *)
type row = {
  regime : regime;
  bound : int;  (* the crash fires at hit 1 + [Rng.int bound] *)
  direction : direction;  (* of the transaction in flight when the crash fires *)
}

(* A regime builds the world a schedule runs in for the armed point;
   [rng] has drawn the crash hit and nothing else. *)
and regime = F.Point.t -> seed:int -> clients:int -> rng:Rng.t -> world

and world = {
  server : Server.t;  (* its injector takes the crash and the transients *)
  clients : int;  (* as reported in the outcome *)
  drive : (limit:int -> (int -> unit) -> exn option) -> unit;
      (* runs each client's transactions 1..limit through the given
         loop, which returns the exception that ended it early *)
  crash_clients : unit -> unit;
  judge : expect:(entered_abort:bool -> direction) -> unit;
      (* checks the store after the crash and restart; [expect] places
         the transaction of the client that took the crash *)
  epilogue : unit -> unit;  (* fault-free work after the crash: the store must still work *)
  check : what:string -> unit;  (* full read-back against the model *)
}

(* ------------------------------------------------------------------ *)
(* Scheduled regime.                                                   *)

(* N simulated clients share the server under the deterministic
   scheduler (lib/sched) while the crash plan is armed, so blocking
   page locks, wound-wait deadlock aborts and client retries
   interleave with the transient faults and the scheduled crash.
   Writes stay partitioned — every object has exactly one writer-owner
   — so the model array stays exact for owned reads; cross-partition
   reads supply the S/X contention and the deadlock cycles.

   When the injected crash fires in one client's RPC the fault halts
   the server: every other task's next RPC raises [Server_down] at
   entry (and parked lock waiters are cancelled with it), so the tasks
   drain on their own and recovery runs once the scheduler returns.

   Direction expectations after restart:
   - the client whose RPC took the injected crash (the one that caught
     [Injected_crash]) is held to the row's direction — its own WAL
     state at the crash point is unaffected by concurrency;
   - a client felled by [Server_down] can never have committed (the
     halt check precedes the RPC's first action), and one that ended
     on a deadlock abort rolled back, so both must come back all-old;
   - a client that died of transient-retry exhaustion is [`Either]: a
     commit ack can be lost after the commit record is durable. *)

(* Region-shipping commit path, used when the armed crash point lives
   in [Server.apply_regions]: ship every unpinned dirty page as four
   byte regions that together cover the whole page (so the patched
   server copy equals the client copy no matter what base the server
   held), then clear its dirty bit so [Client.commit] does not ship it
   again whole. The ships ride the same faultable RPC as whole-page
   ships, so the schedule's transient dups/drops also exercise the
   seq-based idempotent re-apply. *)
let region_ship_dirty client =
  List.iter
    (fun (page_id, frame) ->
      if Buf_pool.pin_count (Client.pool client) frame = 0 then begin
        let b = Client.page_bytes client ~frame in
        let quarter = Bytes.length b / 4 in
        let regions =
          List.init 4 (fun i ->
              let off = i * quarter in
              let len = if i = 3 then Bytes.length b - off else quarter in
              (off, Bytes.sub b off len))
        in
        Client.ship_regions client ~page_id ~check:(Bytes.copy b) regions;
        Buf_pool.clear_dirty (Client.pool client) frame
      end)
    (Buf_pool.dirty_pages (Client.pool client))

(* Cross-partition reads race the owner's commit, so the check is
   structural rather than against the model: the bytes must be exactly
   [value ~seed ~idx ~version] for the version the leading tag itself
   claims — torn or mixed-version reads fail, any committed version
   passes. *)
let check_cross_read ~seed ~client ~idx v =
  let fail () =
    failf "seed %d: client %d cross-read of object %d returned torn bytes %S" seed client idx
      (Bytes.to_string v)
  in
  let s = Bytes.to_string v in
  match String.index_opt s '.' with
  | None -> fail ()
  | Some dot -> (
    match Scanf.sscanf_opt (String.sub s 0 (dot + 1)) "s%d-o%d-v%d." (fun s o ver -> (s, o, ver)) with
    | Some (s', o', ver)
      when s' = seed && o' = idx && Bytes.equal v (value ~seed ~idx ~version:ver) ->
      ()
    | Some _ | None | (exception Scanf.Scan_failure _) -> fail ())

let scheduled point ~seed ~clients ~rng:_ =
  (* Cache-consistency regime rotates with the seed: odd seeds keep the
     historical reset-per-transaction discipline, even seeds run the
     callback-locking protocol (inter-transaction caching, recalls,
     QSan retained-page crosschecks) so both regimes soak against the
     same fault schedule. *)
  let callbacks = seed mod 2 = 0 in
  (* Snapshot-scan regime: every third seed (and always when the armed
     point lives on the snapshot path, so those points actually fire)
     turns on server versioning, makes every third per-client
     transaction a lock-free MVCC snapshot scan, and has client 0 run
     periodic reclamation passes — so the crash also lands
     mid-materialization and mid-trim, on both cache regimes. *)
  let snapshots =
    seed mod 3 = 0 || point = F.Point.Snapshot_trim || point = F.Point.Snapshot_materialize
  in
  let cm = Simclock.Cost_model.default in
  let fault = F.create () in
  let clock = Clock.create () in
  let server = Server.create ~frames:64 ~fault ~clock ~cm () in
  let cls = Array.init clients (fun _ -> Client.create ~frames:6 server) in
  let nobj = 12 in
  let model = Array.init nobj (fun idx -> value ~seed ~idx ~version:0) in
  let oids =
    Array.init nobj (fun idx ->
        Client.with_txn cls.(0) (fun () -> Client.create_object_new_page cls.(0) model.(idx)))
  in
  Client.reset_cache cls.(0);
  if callbacks then Array.iter (fun cl -> Client.enable_callbacks ~sanitize:true cl) cls;
  if snapshots then Server.set_versioning server true;
  let rngs = Array.init clients (fun c -> Rng.create ((seed * 131) + (c * 17) + 9)) in
  let in_flight = Array.make clients [] in
  let entered_abort = Array.make clients false in
  let died = Array.make clients None in
  let quiesce = ref false in
  let await_checkpoint c =
    if c <> 0 && !quiesce then
      ignore
        (Sched.block_on ~what:"checkpoint" (fun () ->
             if !quiesce then Sched.Wait else Sched.Ready))
  in
  let txn c i =
    let cl = cls.(c) and rng = rngs.(c) in
    if snapshots && i mod 3 = 2 then begin
      (* Lock-free snapshot scan: no page locks anywhere, so no
         deadlock retry loop; [with_snapshot_txn] itself re-runs the
         body when reclamation trimmed past the snapshot. Every read
         must still be exactly one committed version (torn or mixed
         bytes fail structurally), and QSan replays each materialized
         page against the WAL. Its client has nothing in flight. *)
      let n = 2 + Rng.int rng 2 in
      let picked = ref [] in
      for _ = 1 to n do
        picked := Rng.int rng nobj :: !picked
      done;
      await_checkpoint c;
      Client.with_snapshot_txn cl ~sanitize:true ~max_attempts:8 (fun () ->
          List.iter
            (fun idx ->
              check_cross_read ~seed ~client:c ~idx (Client.snapshot_read_object cl oids.(idx)))
            !picked)
    end
    else begin
      let own p = (p - (p mod clients) + c) mod nobj in
      let k = 2 + Rng.int rng 2 in
      let wr = ref [] in
      while List.length !wr < k do
        let idx = own (Rng.int rng nobj) in
        if not (List.mem idx !wr) then wr := idx :: !wr
      done;
      let cross =
        List.filter
          (fun idx -> not (List.mem idx !wr))
          (List.sort_uniq compare [ Rng.int rng nobj; Rng.int rng nobj ])
      in
      let fl = List.map (fun idx -> (idx, value ~seed ~idx ~version:((i * clients) + c + 1))) !wr in
      (* Hand-rolled deadlock retry (rather than [with_txn_retrying])
         because abort iterations and the model bookkeeping live inside
         the attempt; the birth stamp is re-registered so the
         transaction ages across retries exactly as the helper does. *)
      let birth = ref None in
      let rec go attempt =
        (* Reset-per-txn regime drops inter-txn cached pages here;
           under callback locking they survive (a deadlock abort
           already dropped the dirty ones). *)
        if not callbacks then Client.reset_cache cl;
        await_checkpoint c;
        Client.begin_txn cl;
        (match !birth with
         | None -> birth := Some (Client.txn_id cl)
         | Some age -> Server.set_txn_age server ~txn:(Client.txn_id cl) ~age);
        match
          in_flight.(c) <- fl;
          entered_abort.(c) <- false;
          List.iter
            (fun (idx, newv) ->
              let got = Client.read_object cl oids.(idx) in
              if not (Bytes.equal got model.(idx)) then
                failf "seed %d: client %d txn %d read stale own object %d" seed c i idx;
              Client.update_object cl oids.(idx) ~off:0 newv)
            fl;
          List.iter
            (fun idx -> check_cross_read ~seed ~client:c ~idx (Client.read_object cl oids.(idx)))
            cross;
          (* Force a mid-transaction steal so evict.steal_write and the
             WAL rule stay exercised under contention. *)
          (match
             List.find_opt
               (fun (_, f) -> Buf_pool.pin_count (Client.pool cl) f = 0)
               (Buf_pool.dirty_pages (Client.pool cl))
           with
          | Some (_, f) -> Client.evict_page cl ~frame:f
          | None -> ());
          if i mod 4 = 3 then begin
            entered_abort.(c) <- true;
            Client.abort cl
          end
          else begin
            if point = F.Point.Commit_ship_region || point = F.Point.Commit_region_torn then
              region_ship_dirty cl;
            Client.commit cl;
            List.iter (fun (idx, newv) -> model.(idx) <- newv) fl
          end;
          (* Checkpoints need quiescence. Client 0 raises [quiesce] so
             the others park before their next [begin_txn], waits until
             no transaction is active (or the server halted), then
             checks and checkpoints under one preemption mask so no one
             begins a transaction in between. The flag drops even when
             the checkpoint dies with the server, or the parked clients
             would wedge the scheduler. *)
          if c = 0 && i mod 5 = 0 then
            Fun.protect
              ~finally:(fun () -> quiesce := false)
              (fun () ->
                quiesce := true;
                ignore
                  (Sched.block_on ~what:"checkpoint quiescence" (fun () ->
                       if Server.active_txns server = 0 || F.halted fault then Sched.Ready
                       else Sched.Wait));
                Sched.atomically (fun () ->
                    if Server.active_txns server = 0 then Server.checkpoint server));
          (* Reclamation pass: trims version deltas below the snapshot
             watermark (crash point snapshot.trim). *)
          if snapshots && c = 0 && i mod 4 = 1 then Server.trim_versions server
        with
        | () -> in_flight.(c) <- []
        | exception (Lock_mgr.Deadlock _ as e) ->
          if Client.in_txn cl then Client.abort cl;
          if attempt + 1 < 8 then go (attempt + 1) else raise e
        | exception (Check_failed _ as e) ->
          (* release locks so the other tasks can drain *)
          (try if Client.in_txn cl then Client.abort cl with _ -> ());
          raise e
      in
      go 0
    end
  in
  let drive loop =
    let sched = Sched.create ~seed ~clocks:[ clock ] () in
    for c = 0 to clients - 1 do
      Sched.spawn sched ~name:(Printf.sprintf "client-%d" c) (fun () ->
          match loop ~limit:30 (txn c) with
          | None -> ()
          | Some e ->
            died.(c) <- Some e;
            (* A client-side death (transient exhaustion) leaves the
               server up with our locks held: roll back so the others
               are not parked behind a corpse. *)
            (try if Client.in_txn cls.(c) then Client.abort cls.(c) with _ -> ()))
    done;
    List.iter
      (fun (name, e) ->
        match e with
        | None -> ()
        | Some (Check_failed msg) -> raise (Check_failed msg)
        | Some e -> failf "seed %d: task %s: unexpected %s" seed name (Printexc.to_string e))
      (Sched.run sched)
  in
  let judge ~expect =
    let primary = ref None in
    Array.iteri
      (fun c e ->
        match e with
        | Some (F.Injected_crash _) when !primary = None -> primary := Some c
        | _ -> ())
      died;
    let reads = read_all cls.(0) oids in
    let skip = List.concat_map (List.map fst) (Array.to_list in_flight) in
    check_intact ~seed ~what:"post-restart" ~model ~skip reads;
    for c = 0 to clients - 1 do
      let expect =
        if !primary = Some c then expect ~entered_abort:entered_abort.(c)
        else
          match died.(c) with
          | Some Server.Server_down | Some (Lock_mgr.Deadlock _) | None -> `Old
          | Some _ -> `Either
      in
      check_in_flight ~seed
        ~what:(Printf.sprintf "post-restart client %d" c)
        ~model ~expect in_flight.(c) reads
    done
  in
  let check ~what = check_intact ~seed ~what ~model ~skip:[] (read_all cls.(0) oids) in
  (* The store must still work single-threaded through client 0. In the
     reset regime every client cache is dropped first — without
     callback locking a page cached before another client's commit is
     legitimately stale, and the epilogue checks demand current bytes.
     Under callback locking retained pages are protocol-fresh, so the
     caches stay: client 0's exclusive locks below recall the other
     clients' copies one by one, exercising the recall path
     single-threaded. (After a crash the clients re-registered nothing,
     so both regimes behave identically there.) *)
  let epilogue () =
    if not callbacks then Array.iter Client.reset_cache cls;
    for v = 1000 to 1001 do
      Client.with_txn cls.(0) (fun () ->
          let idx = v - 1000 in
          Client.update_object cls.(0) oids.(idx) ~off:0 (value ~seed ~idx ~version:v);
          model.(idx) <- value ~seed ~idx ~version:v)
    done
  in
  { server
  ; clients
  ; drive
  ; crash_clients = (fun () -> Array.iter Client.crash cls)
  ; judge
  ; epilogue
  ; check }

(* ------------------------------------------------------------------ *)
(* Log-index regime.                                                   *)

(* Crash points inside the log-structured index ([Esm.Log_index]): a
   stream of insert/delete transactions with forced merges, the crash
   landing before an append, between two merged-run page writes, or
   after the merged run is written but before the root swings. All
   three points precede the commit record, so their rows say [`Old]
   and the judge holds the index to exactly the committed pairs — a
   half-appended log tail, a half-written merge run or an unswung root
   must leave no trace. *)

let log_index _point ~seed ~clients:_ ~rng =
  let module Log_index = Esm.Log_index in
  let cm = Simclock.Cost_model.default in
  let fault = F.create () in
  let server = Server.create ~frames:256 ~fault ~clock:(Clock.create ()) ~cm () in
  let client = ref (Client.create ~frames:64 server) in
  let ikey = Esm.Btree.key_of_int ~klen:8 in
  let oid_of k v = Esm.Oid.make ~page:k ~slot:v ~unique:((k * 8) + v) () in
  Client.begin_txn !client;
  let idx = ref (Log_index.create ~log_pages:1 !client ~klen:8) in
  let root = Log_index.root !idx in
  Client.commit !client;
  (* committed visible pairs; the index's visible state is a set of
     exact (key, oid) pairs regardless of how often each was inserted *)
  let model = ref [] in
  let txn i =
    let pending = ref [] in
    Client.begin_txn !client;
    let nops = 3 + Rng.int rng 4 in
    for _ = 1 to nops do
      let k = Rng.int rng 120 and v = Rng.int rng 3 in
      let key = Bytes.to_string (ikey k) and oid = oid_of k v in
      if Rng.int rng 100 < 70 then begin
        Log_index.insert !idx ~key:(ikey k) ~oid;
        pending := `Ins (key, oid) :: !pending
      end
      else if Log_index.delete !idx ~key:(ikey k) ~oid then pending := `Del (key, oid) :: !pending
    done;
    (* Forced merges keep merge.write / merge.swing firing even while
       the log is far from full. *)
    if i mod 3 = 0 then Log_index.merge ~force:true !idx;
    Client.commit !client;
    List.iter
      (fun op ->
        match op with
        | `Ins p -> if not (List.mem p !model) then model := p :: !model
        | `Del p -> model := List.filter (fun q -> q <> p) !model)
      (List.rev !pending)
  in
  (* A restarted server gets a fresh client that reopens the index. *)
  let check ~what =
    client := Client.create ~frames:64 server;
    Client.begin_txn !client;
    idx := Log_index.open_index !client ~root ~klen:8;
    let got = ref [] in
    Log_index.range !idx ~lo:(Bytes.make 8 '\000') ~hi:(Bytes.make 8 '\xff') (fun k oid ->
        got := (Bytes.to_string k, oid) :: !got);
    let want = List.sort compare !model in
    if List.sort compare !got <> want then
      failf "seed %d: %s: index shows %d pairs, committed state has %d" seed what
        (List.length !got) (List.length want);
    if Log_index.cardinal !idx <> List.length want then
      failf "seed %d: %s: cardinal disagrees with range scan" seed what;
    Client.commit !client
  in
  let judge ~expect:_ = check ~what:"post-restart" in
  (* The index must still take writes and merge cleanly. *)
  let epilogue () =
    Client.begin_txn !client;
    for v = 0 to 2 do
      let key = Bytes.to_string (ikey 999) and oid = oid_of 200 v in
      Log_index.insert !idx ~key:(ikey 999) ~oid;
      if not (List.mem (key, oid) !model) then model := (key, oid) :: !model
    done;
    Log_index.merge ~force:true !idx;
    Client.commit !client
  in
  { server
  ; clients = 1
  ; drive =
      (* The index schedule drives its one client directly, not as a
         scheduler task: under the scheduler every fresh page lock also
         refreshes the cached page ([Client.lock_page]), which adds RPCs
         and so would change these schedules. *)
      (fun loop -> ignore (loop ~limit:60 txn))
  ; crash_clients = (fun () -> Client.crash !client)
  ; judge
  ; epilogue
  ; check }

(* ------------------------------------------------------------------ *)
(* The crash-point table: exactly one row per registered point.        *)

(* Bounds follow how often each point is hit per transaction: once per
   page in every scan for snapshot.materialize, once per reclamation
   pass for snapshot.trim, once per insert or tombstone for
   index.log_append, once per merged-run page for index.merge_write and
   once per merge for index.merge_swing. wal.force_partial and
   disk.torn_write land either way, depending on the cut. *)
let table : F.Point.t -> row =
  let row regime bound direction = { regime; bound; direction } in
  function
  | Commit_pre_log -> row scheduled 12 `Old
  | Commit_pre_flush -> row scheduled 12 `Old
  | Commit_mid_flush -> row scheduled 20 `New
  | Commit_post_flush -> row scheduled 12 `New
  | Commit_ship_page -> row scheduled 20 `Old
  | Commit_ship_region -> row scheduled 20 `Old
  | Commit_region_torn -> row scheduled 20 `Old
  | Wal_force_partial -> row scheduled 12 `Either
  | Abort_mid_undo -> row scheduled 6 `Old
  | Evict_steal_write -> row scheduled 15 `Old
  | Checkpoint_mid_flush -> row scheduled 6 `Either
  | Disk_torn_write -> row scheduled 25 `Either
  | Snapshot_trim -> row scheduled 4 `Either
  | Snapshot_materialize -> row scheduled 15 `Either
  | Index_log_append -> row log_index 60 `Old
  | Index_merge_write -> row log_index 12 `Old
  | Index_merge_swing -> row log_index 6 `Old

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

(* The crash points restart passes here, each with the bound of its
   drawn hit: each loser's [Server.abort] passes the undo and log-force
   points once per undone record or force, a varying number of times;
   the restart client's one commit passes its points once, so a hit
   above 1 could never fire there. No regime keeps a B-tree, so that
   commit flushes no page: [commit.mid_flush] is left to test_recovery. *)
let restart_points =
  F.Point.[ (Abort_mid_undo, 4); (Wal_force_partial, 4); (Commit_pre_log, 1); (Commit_pre_flush, 1) ]

let run_schedule point ~seed ~clients =
  let row = table point in
  let rng = Rng.create ((seed * 2) + 1) in
  let hit = 1 + Rng.int rng row.bound in
  let w = row.regime point ~seed ~clients ~rng in
  let fault = Server.fault_injector w.server in
  F.arm fault { (transient_plan ~seed) with F.crash_point = Some (point, hit) };
  let crashed = ref false and txns = ref 0 in
  let loop ~limit txn =
    let rec go i =
      if !crashed || i > limit then None
      else begin
        incr txns;
        match txn i with
        | () -> go (i + 1)
        | exception e when ends_loop ~crashed:!crashed e ->
          crashed := true;
          Some e
      end
    in
    go 1
  in
  let restart ?cut () =
    w.crash_clients ();
    (match cut with Some plan -> F.arm fault plan | None -> F.disarm fault);
    Server.crash w.server;
    Recovery.restart ~sanitize:true w.server
  in
  let recorded = ref None (* the schedule's fault record, before a restart cut re-arms *)
  and restart_crash = ref None in
  let failure =
    match
      w.drive loop;
      let fired = F.fired fault in
      recorded := Some (fired, F.transients_injected fault);
      if !crashed then begin
        (* The first restart is itself cut at a drawn point; if that
           fires, a clean restart must finish its work. *)
        let rpoint, reachable = List.nth restart_points (Rng.int rng (List.length restart_points)) in
        let cut =
          { F.no_faults with F.crash_point = Some (rpoint, 1 + Rng.int rng reachable); rng_seed = seed }
        in
        (match restart ~cut () with
         | _ -> F.disarm fault
         | exception F.Injected_crash _ -> ignore (restart ()));
        restart_crash := Some (rpoint, F.fired fault <> None);
        (* The crashed client's transaction: unknown when no crash point
           fired (retry exhaustion: phase unknown), a loser once it
           entered abort, else the row's direction. *)
        w.judge ~expect:(fun ~entered_abort ->
            match fired with None -> `Either | Some _ -> if entered_abort then `Old else row.direction)
      end;
      F.disarm fault;
      w.epilogue ();
      w.check ~what:"epilogue";
      (* Restart idempotency: a second clean crash/restart finds no
         loser to undo and changes nothing. *)
      let again = restart () in
      if again.Recovery.losers_undone > 0 then
        failf "seed %d: second restart undid %d losers" seed again.Recovery.losers_undone;
      w.check ~what:"second restart"
    with
    | () -> None
    | exception Check_failed msg -> Some msg
    | exception e -> Some (Printf.sprintf "seed %d: unexpected %s" seed (Printexc.to_string e))
  in
  let fired, transients =
    Option.value !recorded ~default:(F.fired fault, F.transients_injected fault)
  in
  { seed
  ; point
  ; clients = w.clients
  ; fired = fired <> None
  ; restart_crash = !restart_crash
  ; txns = !txns
  ; transients
  ; failure }

let point_of_seed seed = List.nth F.Point.all (seed mod List.length F.Point.all)

(* Concurrency of a scheduled schedule: 2..4 clients, rotating
   with the seed so a contiguous sweep covers every width at every
   crash point. [?clients] pins it instead. Log-index schedules run
   one client regardless. *)
let clients_of_seed seed = 2 + (seed mod 3)

let run_seed ?clients ~seed () =
  let clients = match clients with Some n -> n | None -> clients_of_seed seed in
  run_schedule (point_of_seed seed) ~seed ~clients

type summary = {
  total : int;
  failed : outcome list;
  coverage : (F.Point.t * int * int) list;  (* point, schedules, fired *)
  restart_coverage : (F.Point.t * int * int) list;  (* point, restarts armed there, fired *)
  transients_total : int;
}

let log_line o =
  let name = F.Point.name o.point in
  match o.failure with
  | Some msg ->
    Printf.sprintf "FAIL seed %d [%s] %s; repro: %s" o.seed name msg
      (repro ~seed:o.seed ~clients:o.clients)
  | None ->
    Printf.sprintf "ok   seed %d [%s, %d client%s] %s after %d txns, %d transient faults%s" o.seed
      name o.clients
      (if o.clients = 1 then "" else "s")
      (if o.fired then "fired" else "no fire")
      o.txns o.transients
      (match o.restart_crash with
       | Some (p, true) -> "; restart crashed at " ^ F.Point.name p
       | Some (p, false) -> "; restart passed " ^ F.Point.name p
       | None -> "")

let run_range ?(log = fun _ -> ()) ?clients ~first ~count () =
  let outcomes =
    List.init count (fun i ->
        let o = run_seed ?clients ~seed:(first + i) () in
        log (log_line o);
        o)
  in
  (* Per point: how many outcomes armed it, and how many of them fired. *)
  let tally points armed =
    let armed = List.filter_map armed outcomes in
    List.map
      (fun p ->
        let fires = List.filter_map (fun (q, f) -> if q = p then Some f else None) armed in
        (p, List.length fires, List.length (List.filter Fun.id fires)))
      points
  in
  { total = count
  ; failed = List.filter (fun o -> o.failure <> None) outcomes
  ; coverage = tally F.Point.all (fun o -> Some (o.point, o.fired))
  ; restart_coverage = tally (List.map fst restart_points) (fun o -> o.restart_crash)
  ; transients_total = List.fold_left (fun n o -> n + o.transients) 0 outcomes }
