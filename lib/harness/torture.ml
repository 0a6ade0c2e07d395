(* Crash-point torture harness.

   One seed = one deterministic schedule: a small object world, a
   stream of update transactions laced with transient disk/network
   faults, and a scheduled crash at one registered Qs_fault point
   (chosen by [seed mod |points|], so any contiguous seed range covers
   the whole registry). When the crash fires, the harness takes it —
   [Client.crash], [Server.crash], [Recovery.restart ~sanitize:true] —
   and then checks the full read-back against a model kept in ordinary
   OCaml values:

   - objects untouched by the in-flight transaction must be bitwise
     intact;
   - the in-flight transaction must be atomic: all-old or all-new,
     with the direction pinned down wherever the crash point
     determines it (e.g. [commit.pre_flush] is a loser,
     [commit.post_flush] a winner);
   - prepared 2PC participants must restart in-doubt and be resolvable
     to BOTH decisions (checked on forked volumes) before the real
     decision is applied everywhere and checked for global atomicity.

   Each crash point has one row in [table] naming its regime
   (scheduled single-server, log-index or 2PC), the bound its firing
   hit is drawn from and the direction its in-flight transaction must
   take; every regime runs through one skeleton, [run_schedule].
   Single-server schedules run 2-4 clients under the deterministic
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
module Dist_txn = Esm.Dist_txn
module Buf_pool = Esm.Buf_pool
module Rng = Qs_util.Rng
module Clock = Simclock.Clock

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let repro ~seed ~clients =
  Printf.sprintf "qs_torture --first-seed %d --seeds 1 --clients %d" seed clients

type outcome = {
  seed : int;
  point : string;  (* the armed crash point *)
  clients : int;  (* concurrent clients in the schedule (1 for log-index and 2PC) *)
  fired : bool;
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

(* Atomicity check on the in-flight transaction's objects; returns
   [`Old] or [`New] as actually observed, updating the model. *)
let check_in_flight ~seed ~what ~model ~expect in_flight reads =
  match in_flight with
  | [] -> `Old
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
    if first = `New then List.iter (fun (idx, newv) -> model.(idx) <- newv) in_flight;
    first

(* Exceptions that end a client's transaction loop: the crash and the
   retry exhaustions that stand for it, and, once the crash is in, a
   deadlock retry exhaustion in the post-crash drain window. *)
let ends_loop ~crashed = function
  | F.Injected_crash _ | F.Io_error _ | F.Net_error _ | Client.Degraded _ | Server.Server_down
  | Server.Injected_crash ->
    true
  | Lock_mgr.Deadlock _ -> crashed
  | _ -> false

(* A lone server never prepares, so its restart finds nothing in doubt. *)
let no_in_doubt ~seed = function
  | [] -> ()
  | _ :: _ -> failf "seed %d: unexpected in-doubt transactions on a single server" seed

(* ------------------------------------------------------------------ *)
(* The schedule skeleton.                                              *)

(* Where the in-flight transaction must land after the restart. *)
type direction = [ `Old | `New | `Either ]

(* One row of the crash-point table. *)
type row = {
  point : string;
  regime : regime;
  bound : int;  (* the crash fires at hit 1 + [Rng.int bound] *)
  direction : direction;  (* of the transaction in flight when the crash fires *)
}

(* A regime builds the world a schedule runs in; [rng] has drawn the
   crash hit and nothing else. *)
and regime = row -> seed:int -> clients:int -> rng:Rng.t -> world

and world = {
  servers : Server.t list;  (* crashed and restarted together, in this order *)
  armed : Server.t;  (* its injector takes the crash; the others transients only *)
  clients : int;  (* as reported in the outcome *)
  drive : (limit:int -> (int -> unit) -> exn option) -> unit;
      (* runs each client's transactions 1..limit through the given
         loop, which returns the exception that ended it early *)
  crash_clients : unit -> unit;
  judge : fired:(string * int) option -> in_doubt:(Server.t -> int list) -> unit;
      (* checks the store after the crash and restart *)
  epilogue : unit -> unit;  (* fault-free work after the crash: the store must still work *)
  check : what:string -> unit;  (* full read-back against the model *)
}

(* Expected direction of a client's in-flight transaction: unknown
   when no crash point fired (retry or server-retry exhaustion: phase
   unknown), a loser once it entered abort, else the row's. *)
let expectation row ~entered_abort = function
  | None -> `Either
  | Some _ -> if entered_abort then `Old else row.direction

let run_schedule row ~seed ~clients =
  let rng = Rng.create ((seed * 2) + 1) in
  let hit = 1 + Rng.int rng row.bound in
  let w = row.regime row ~seed ~clients ~rng in
  let faults = List.map Server.fault_injector w.servers in
  let armed = Server.fault_injector w.armed in
  List.iter
    (fun f ->
      F.arm f
        (if f == armed then { (transient_plan ~seed) with F.crash_point = Some (row.point, hit) }
         else transient_plan ~seed:(seed + 1)))
    faults;
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
  let restart () =
    w.crash_clients ();
    List.iter F.disarm faults;
    List.iter Server.crash w.servers;
    List.map (fun s -> (s, Recovery.restart ~sanitize:true s)) w.servers
  in
  let failure =
    match
      w.drive loop;
      if !crashed then begin
        let fired = F.fired armed in
        let stats = restart () in
        w.judge ~fired ~in_doubt:(fun s -> (List.assq s stats).Recovery.in_doubt)
      end;
      List.iter F.disarm faults;
      w.epilogue ();
      w.check ~what:"epilogue";
      (* Restart idempotency: a second clean crash/restart changes nothing. *)
      ignore (restart ());
      w.check ~what:"second restart"
    with
    | () -> None
    | exception Check_failed msg -> Some msg
    | exception e -> Some (Printf.sprintf "seed %d: unexpected %s" seed (Printexc.to_string e))
  in
  { seed
  ; point = row.point
  ; clients = w.clients
  ; fired = F.fired armed <> None
  ; txns = !txns
  ; transients = List.fold_left (fun n f -> n + F.transients_injected f) 0 faults
  ; failure }

(* ------------------------------------------------------------------ *)
(* Scheduled single-server regime.                                     *)

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

let scheduled row ~seed ~clients ~rng:_ =
  let point = row.point in
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
    seed mod 3 = 0 || point = F.Point.snapshot_trim || point = F.Point.snapshot_materialize
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
            if point = F.Point.commit_ship_region || point = F.Point.commit_region_torn then
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
  let judge ~fired ~in_doubt =
    no_in_doubt ~seed (in_doubt server);
    let primary = ref None in
    Array.iteri
      (fun c e ->
        match e with
        | Some (F.Injected_crash _ | Server.Injected_crash) when !primary = None -> primary := Some c
        | _ -> ())
      died;
    let reads = read_all cls.(0) oids in
    let skip = List.concat_map (List.map fst) (Array.to_list in_flight) in
    check_intact ~seed ~what:"post-restart" ~model ~skip reads;
    for c = 0 to clients - 1 do
      let expect =
        if !primary = Some c then expectation row ~entered_abort:entered_abort.(c) fired
        else
          match died.(c) with
          | Some Server.Server_down | Some (Lock_mgr.Deadlock _) | None -> `Old
          | Some _ -> `Either
      in
      ignore
        (check_in_flight ~seed
           ~what:(Printf.sprintf "post-restart client %d" c)
           ~model ~expect in_flight.(c) reads)
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
  { servers = [ server ]
  ; armed = server
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

let log_index _row ~seed ~clients:_ ~rng =
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
  let judge ~fired:_ ~in_doubt =
    no_in_doubt ~seed (in_doubt server);
    check ~what:"post-restart"
  in
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
  { servers = [ server ]
  ; armed = server
  ; clients = 1
  ; drive =
      (* Index and 2PC schedules drive their one client directly, not as
         a scheduler task: under the scheduler every fresh page lock also
         refreshes the cached page ([Client.lock_page]), which adds RPCs
         and so would change these schedules. *)
      (fun loop -> ignore (loop ~limit:60 txn))
  ; crash_clients = (fun () -> Client.crash !client)
  ; judge
  ; epilogue
  ; check }

(* ------------------------------------------------------------------ *)
(* Two-server (2PC) regime.                                            *)

(* What each participant knows about the transaction after restart. *)
type participant_state = In_doubt of int | Committed | Aborted

let participant_state ~seed ~model ~in_flight ~in_doubt reads =
  match in_doubt with
  | [ txn ] -> In_doubt txn
  | _ :: _ :: _ -> failf "seed %d: more than one in-doubt transaction" seed
  | [] ->
    (match
       check_in_flight ~seed ~what:"participant" ~model:(Array.copy model) ~expect:`Either
         in_flight reads
     with
    | `New -> Committed
    | `Old -> Aborted)

(* Fork the crashed participant and prove the in-doubt transaction can
   go BOTH ways before the real decision is applied. *)
let check_both_ways ~seed ~model ~in_flight ~oids server txn =
  List.iter
    (fun decision ->
      let fork = Server.fork_crashed server in
      let st = Recovery.restart ~sanitize:true fork in
      if not (List.mem txn st.Recovery.in_doubt) then
        failf "seed %d: fork lost the in-doubt transaction %d" seed txn;
      Recovery.resolve_in_doubt fork txn decision;
      let c = Client.create ~frames:16 fork in
      let reads = read_all c oids in
      let expect = match decision with `Commit -> `New | `Abort -> `Old in
      check_intact ~seed ~what:"fork" ~model ~skip:(List.map fst in_flight) reads;
      ignore
        (check_in_flight ~seed ~what:"fork" ~model:(Array.copy model) ~expect in_flight reads))
    [ `Abort; `Commit ]

let two_phase row ~seed ~clients:_ ~rng =
  let point = row.point in
  let cm = Simclock.Cost_model.default in
  let mk () =
    let server = Server.create ~frames:64 ~fault:(F.create ()) ~clock:(Clock.create ()) ~cm () in
    (server, Client.create ~frames:8 server)
  in
  let s1, c1 = mk () in
  let s2, c2 = mk () in
  let nobj = 4 in
  let model1 = Array.init nobj (fun idx -> value ~seed ~idx ~version:0) in
  let model2 = Array.init nobj (fun idx -> value ~seed ~idx:(idx + 100) ~version:0) in
  let mk_world c model =
    Array.init nobj (fun idx ->
        Client.with_txn c (fun () -> Client.create_object_new_page c model.(idx)))
  in
  let oids1 = mk_world c1 model1 and oids2 = mk_world c2 model2 in
  (* The crash rides on the coordinator's site for dist.* points and on
     participant 2 for prepare.*; the other site gets transients only. *)
  let crash_on_f1 = point = F.Point.dist_pre_prepare || point = F.Point.dist_pre_decision
                    || point = F.Point.dist_mid_decision in
  let fl1 = ref [] and fl2 = ref [] in
  let txn i =
    let i1 = Rng.int rng nobj and i2 = Rng.int rng nobj in
    let n1 = value ~seed ~idx:i1 ~version:i in
    let n2 = value ~seed ~idx:(i2 + 100) ~version:i in
    fl1 := [ (i1, n1) ];
    fl2 := [ (i2, n2) ];
    let d = Dist_txn.begin_txn ~fault:(Server.fault_injector s1) [ c1; c2 ] in
    Client.update_object c1 oids1.(i1) ~off:0 n1;
    Client.update_object c2 oids2.(i2) ~off:0 n2;
    if i mod 5 = 0 then Dist_txn.abort d
    else begin
      Dist_txn.commit d;
      model1.(i1) <- n1;
      model2.(i2) <- n2
    end
  in
  let judge ~fired ~in_doubt =
    let fl1 = !fl1 and fl2 = !fl2 in
    let reads1 = read_all c1 oids1 and reads2 = read_all c2 oids2 in
    check_intact ~seed ~what:"site 1" ~model:model1 ~skip:(List.map fst fl1) reads1;
    check_intact ~seed ~what:"site 2" ~model:model2 ~skip:(List.map fst fl2) reads2;
    let p1 = participant_state ~seed ~model:model1 ~in_flight:fl1 ~in_doubt:(in_doubt s1) reads1 in
    let p2 = participant_state ~seed ~model:model2 ~in_flight:fl2 ~in_doubt:(in_doubt s2) reads2 in
    (* In-doubt participants must be resolvable both ways. *)
    (match p1 with
     | In_doubt txn -> check_both_ways ~seed ~model:model1 ~in_flight:fl1 ~oids:oids1 s1 txn
     | Committed | Aborted -> ());
    (match p2 with
     | In_doubt txn -> check_both_ways ~seed ~model:model2 ~in_flight:fl2 ~oids:oids2 s2 txn
     | Committed | Aborted -> ());
    (* The real decision: commit iff some participant already committed
       (it can no longer abort); presumed abort otherwise. Mixed
       terminal states are an atomicity bug. *)
    (match (p1, p2) with
     | Committed, Aborted | Aborted, Committed ->
       failf "seed %d: participants decided differently" seed
     | _ -> ());
    let decision = if p1 = Committed || p2 = Committed then `Commit else `Abort in
    if decision = `Commit && expectation row ~entered_abort:false fired = `Old then
      failf "seed %d: crash at %s must not leave a committed participant" seed point;
    (match p1 with
     | In_doubt txn -> Recovery.resolve_in_doubt s1 txn decision
     | Committed | Aborted -> ());
    (match p2 with
     | In_doubt txn -> Recovery.resolve_in_doubt s2 txn decision
     | Committed | Aborted -> ());
    (* The pre-resolution read-back cached the redone (new) pages at
       the clients; resolution changed them server-side. *)
    Client.crash c1;
    Client.crash c2;
    let expect = match decision with `Commit -> `New | `Abort -> `Old in
    ignore
      (check_in_flight ~seed ~what:"site 1 resolved" ~model:model1 ~expect fl1 (read_all c1 oids1));
    ignore
      (check_in_flight ~seed ~what:"site 2 resolved" ~model:model2 ~expect fl2 (read_all c2 oids2))
  in
  let check ~what =
    check_intact ~seed ~what:(what ^ " site 1") ~model:model1 ~skip:[] (read_all c1 oids1);
    check_intact ~seed ~what:(what ^ " site 2") ~model:model2 ~skip:[] (read_all c2 oids2)
  in
  (* One clean distributed commit, then full read-back. *)
  let epilogue () =
    let d = Dist_txn.begin_txn [ c1; c2 ] in
    let n1 = value ~seed ~idx:0 ~version:9999 and n2 = value ~seed ~idx:100 ~version:9999 in
    Client.update_object c1 oids1.(0) ~off:0 n1;
    Client.update_object c2 oids2.(0) ~off:0 n2;
    Dist_txn.commit d;
    model1.(0) <- n1;
    model2.(0) <- n2
  in
  { servers = [ s1; s2 ]
  ; armed = (if crash_on_f1 then s1 else s2)
  ; clients = 1
  ; drive = (fun loop -> ignore (loop ~limit:40 txn))
  ; crash_clients =
      (fun () ->
        Client.crash c1;
        Client.crash c2)
  ; judge
  ; epilogue
  ; check }

(* ------------------------------------------------------------------ *)
(* The crash-point table: exactly one row per registered point.        *)

(* Bounds follow how often each point is hit per transaction: once per
   2PC round for prepare.* / dist.*, once per page in every scan for
   snapshot.materialize, once per reclamation pass for snapshot.trim,
   once per insert or tombstone for index.log_append, once per
   merged-run page for index.merge_write and once per merge for
   index.merge_swing. wal.force_partial and disk.torn_write land
   either way, depending on the cut. *)
let table =
  let row regime point bound direction = { point; regime; bound; direction } in
  F.Point.
    [ row scheduled commit_pre_log 12 `Old
    ; row scheduled commit_pre_flush 12 `Old
    ; row scheduled commit_mid_flush 20 `New
    ; row scheduled commit_post_flush 12 `New
    ; row scheduled commit_ship_page 20 `Old
    ; row scheduled commit_ship_region 20 `Old
    ; row scheduled commit_region_torn 20 `Old
    ; row scheduled wal_force_partial 12 `Either
    ; row two_phase prepare_pre_log 6 `Old
    ; row two_phase prepare_post_log 6 `Old
    ; row two_phase prepare_mid_flush 6 `Old
    ; row scheduled abort_mid_undo 6 `Old
    ; row scheduled evict_steal_write 15 `Old
    ; row scheduled checkpoint_mid_flush 6 `Either
    ; row scheduled disk_torn_write 25 `Either
    ; row two_phase dist_pre_prepare 6 `Old
    ; row two_phase dist_pre_decision 6 `Old
    ; row two_phase dist_mid_decision 6 `Either
    ; row scheduled snapshot_trim 4 `Either
    ; row scheduled snapshot_materialize 15 `Either
    ; row log_index index_log_append 60 `Old
    ; row log_index index_merge_write 12 `Old
    ; row log_index index_merge_swing 6 `Old ]

let row_of_point point =
  match List.find_opt (fun r -> r.point = point) table with
  | Some r -> r
  | None -> invalid_arg ("Torture: no table row for crash point " ^ point)

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let points = F.Point.all
let point_of_seed seed = List.nth points (seed mod List.length points)

(* Concurrency of a single-server schedule: 2..4 clients, rotating
   with the seed so a contiguous sweep covers every width at every
   crash point. [?clients] pins it instead. Log-index and 2PC
   schedules run one client per server regardless. *)
let clients_of_seed seed = 2 + (seed mod 3)

let run_seed ?clients ~seed () =
  let clients = match clients with Some n -> n | None -> clients_of_seed seed in
  run_schedule (row_of_point (point_of_seed seed)) ~seed ~clients

type summary = {
  total : int;
  failed : outcome list;
  coverage : (string * int * int) list;  (* point, schedules, fired *)
  transients_total : int;
}

let run_range ?(log = fun _ -> ()) ?clients ~first ~count () =
  let sched = Hashtbl.create 16 and fire = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace sched p 0;
      Hashtbl.replace fire p 0)
    points;
  let bump h p = Hashtbl.replace h p (Hashtbl.find h p + 1) in
  let failed = ref [] in
  let transients = ref 0 in
  for seed = first to first + count - 1 do
    let o = run_seed ?clients ~seed () in
    bump sched o.point;
    if o.fired then bump fire o.point;
    transients := !transients + o.transients;
    (match o.failure with
     | Some msg ->
       failed := o :: !failed;
       log
         (Printf.sprintf "FAIL seed %d [%s] %s; repro: %s" o.seed o.point msg
            (repro ~seed:o.seed ~clients:o.clients))
     | None ->
       log
         (Printf.sprintf "ok   seed %d [%s, %d client%s] %s after %d txns, %d transient faults"
            o.seed o.point o.clients
            (if o.clients = 1 then "" else "s")
            (if o.fired then "fired" else "no fire")
            o.txns o.transients))
  done;
  { total = count
  ; failed = List.rev !failed
  ; coverage = List.map (fun p -> (p, Hashtbl.find sched p, Hashtbl.find fire p)) points
  ; transients_total = !transients }
