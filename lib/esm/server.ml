[@@@qs_lint.allow "QS001"] (* page shipping between pool frames and the simulated disk *)

type io_kind = Data | Map | Index

type recall_verdict = Recall_dropped | Recall_deferred | Recall_dead

type counters = {
  mutable client_reads : int;
  mutable client_reads_data : int;
  mutable client_reads_map : int;
  mutable client_reads_index : int;
  mutable client_writes : int;
  mutable client_region_ships : int;  (* pages patched via apply_regions (dups excluded) *)
  mutable region_bytes_shipped : int;  (* payload bytes of those patches *)
  mutable server_pool_hits : int;
  mutable callbacks_sent : int;  (* recall RPCs issued before an exclusive page grant *)
  mutable callbacks_deferred : int;  (* recalls answered Deferred (page busy at the holder) *)
  mutable gc_rides : int;  (* log forces that rode the in-flight group-commit write *)
  mutable gc_cross_rides : int;  (* rides whose committer differs from the force owner *)
  mutable snapshot_reads : int;  (* pages materialized for snapshot transactions *)
  mutable snapshot_deltas_applied : int;  (* undo deltas applied across those reads *)
}

exception Server_down
exception Bad_txn of { op : string; txn : int }

(* One active transaction's server-side state. *)
type txn = {
  mutable updates : Wal.record list;
      (* newest first: the undo log for abort, and the before-images of
         every snapshot read and version push *)
  dirty : (int, unit) Hashtbl.t;  (* server-side pages to flush *)
  ships : (int, unit) Hashtbl.t;
      (* region-ship sequence numbers already applied: a retried or
         duplicated ship RPC must not patch twice *)
  mutable ship_us : float;  (* commit-ship time eligible for the pipeline credit *)
  owner : int option;  (* client id (registered clients only) *)
}

type t = {
  disk : Disk.t;
  mutable wal : Wal.t;
  mutable locks : Lock_mgr.t;
  mutable pool : Buf_pool.t;
  frames : int;
  clock : Simclock.Clock.t;
  cm : Simclock.Cost_model.t;
  counters : counters;
  mutable next_txn : int;
  mutable txns : (int, txn) Hashtbl.t;  (* the active transactions *)
  mutable index_undo : Wal.record -> unit;
  fault : Qs_fault.t;  (* Qs_fault injector shared with the disk *)
  mutable group_commit : bool;
  mutable last_force : (float * int) option;
      (* simulated time of the last charged log force and the count of
         full log pages durable at that point; a force inside the
         group-commit window that adds no full page rides it for free *)
  mutable pipeline_commit : bool;
      (* overlap commit-time ships with the WAL force: the force's disk
         charge is reduced by the time already spent shipping this
         transaction's pages/regions (the records were appended before
         the ships started, so the disk and the network proceed in
         parallel) *)
  (* --- callback locking (inter-transaction client caching) --- *)
  mutable next_client : int;
  mutable registered : (int, int -> recall_verdict) Hashtbl.t;
      (* client id -> recall RPC endpoint; only registered clients
         cache pages across transactions *)
  mutable copies : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* copy table: page id -> ids of registered clients caching it.
         Invariant: before any exclusive page grant, every *other*
         holder listed here has answered a recall — Dropped holders are
         removed, Deferred holders still hold a conflicting lock of
         their own, so the requester blocks in [Lock_mgr] until the
         holder finishes and drops the page. *)
  mutable last_force_by : int option;
      (* owner of the force charged at [last_force]; a ride by a
         different owner is a cross-client group commit *)
  (* --- snapshot-isolation reads (MVCC version chains) --- *)
  mutable versions : Version_store.t option;
      (* None = versioning off: the commit-time push below is a no-op,
         so the default configuration charges nothing and stays
         bit-identical to the locking-only server *)
  mutable snapshots : (int, int64) Hashtbl.t;  (* snapshot id -> snapshot LSN *)
  mutable next_snapshot : int;
}

let create_with_disk ?(frames = 4608) ?fault ~disk ~clock ~cm () =
  let fault = match fault with Some f -> f | None -> Qs_fault.create () in
  Disk.set_fault disk fault;
  { disk
  ; wal = Wal.create ()
  ; locks = Lock_mgr.create ()
  ; pool = Buf_pool.create ~frames
  ; frames
  ; clock
  ; cm
  ; counters =
      { client_reads = 0
      ; client_reads_data = 0
      ; client_reads_map = 0
      ; client_reads_index = 0
      ; client_writes = 0
      ; client_region_ships = 0
      ; region_bytes_shipped = 0
      ; server_pool_hits = 0
      ; callbacks_sent = 0
      ; callbacks_deferred = 0
      ; gc_rides = 0
      ; gc_cross_rides = 0
      ; snapshot_reads = 0
      ; snapshot_deltas_applied = 0 }
  ; next_txn = 1
  ; txns = Hashtbl.create 8
  ; index_undo = (fun _ -> ())
  ; fault
  ; group_commit = false
  ; last_force = None
  ; pipeline_commit = false
  ; next_client = 1
  ; registered = Hashtbl.create 8
  ; copies = Hashtbl.create 64
  ; last_force_by = None
  ; versions = None
  ; snapshots = Hashtbl.create 8
  ; next_snapshot = 1 }

let create ?frames ?fault ~clock ~cm () =
  create_with_disk ?frames ?fault ~disk:(Disk.create ()) ~clock ~cm ()

let fault_injector t = t.fault
let set_group_commit t b = t.group_commit <- b
let set_commit_pipeline t b = t.pipeline_commit <- b

let disk t = t.disk
let clock t = t.clock
let cost_model t = t.cm
let wal t = t.wal
let counters t = t.counters

let reset_counters t =
  let c = t.counters in
  c.client_reads <- 0;
  c.client_reads_data <- 0;
  c.client_reads_map <- 0;
  c.client_reads_index <- 0;
  c.client_writes <- 0;
  c.client_region_ships <- 0;
  c.region_bytes_shipped <- 0;
  c.server_pool_hits <- 0;
  c.callbacks_sent <- 0;
  c.callbacks_deferred <- 0;
  c.gc_rides <- 0;
  c.gc_cross_rides <- 0;
  c.snapshot_reads <- 0;
  c.snapshot_deltas_applied <- 0

(* A server whose scheduled crash has fired is dead until [crash] takes
   the failure: further requests bounce, exactly as the clients of a
   crashed server would see it. *)
let check_up t = if Qs_fault.halted t.fault then raise Server_down

(* Every server entry point is one RPC: under the multi-client
   scheduler it must mutate server state without another client's
   request interleaving mid-way, exactly as a real server would handle
   one request at a time. [Sched.atomically] masks charge-boundary
   preemption for the duration (a no-op in single-client harnesses);
   blocking lock waits inside remain legal suspension points. *)
let serve f = Sched.atomically f

(* A new transaction, or a loser restart hands back with its records. *)
let enroll ?owner t ~txn updates =
  Hashtbl.replace t.txns txn
    { updates; dirty = Hashtbl.create 32; ships = Hashtbl.create 16; ship_us = 0.0; owner };
  t.next_txn <- max t.next_txn (txn + 1)

let adopt_loser t ~txn records = enroll t ~txn records

let begin_txn ?client t =
  serve @@ fun () ->
  check_up t;
  let txn = t.next_txn in
  enroll ?owner:client t ~txn [];
  ignore (Wal.append t.wal (Wal.Begin txn));
  txn

(* --- callback locking: copy table and recall endpoints --- *)

let register_client t recall =
  let id = t.next_client in
  t.next_client <- id + 1;
  Hashtbl.replace t.registered id recall;
  id

let drop_all_copies t ~client =
  Hashtbl.iter (fun _ holders -> Hashtbl.remove holders client) t.copies

let forget_client t client =
  Hashtbl.remove t.registered client;
  drop_all_copies t ~client

let note_cached t ~client page_id =
  (* Piggybacks on the read reply: no separate network charge. Only
     registered clients are tracked, so with callbacks off the copy
     table stays empty and the protocol costs nothing.

     Refuses ([false]) when a foreign transaction already holds — or
     is parked waiting for — the page exclusively: clients fetch
     before they lock, and the writer's recall sweep ran when its
     request arrived, before this copy existed, so nothing would ever
     invalidate the copy when the writer commits. The fetched bytes
     stay usable for the current transaction (same read-skew window
     the reset-per-txn regime has) but must not be retained past
     it. *)
  if Hashtbl.mem t.registered client then begin
    let foreign = function
      | None -> false
      | Some h -> (
        match Hashtbl.find_opt t.txns h with Some x -> x.owner <> Some client | None -> true)
    in
    let resource = Lock_mgr.Page_lock page_id in
    let foreign_writer =
      foreign (Lock_mgr.exclusive_holder t.locks resource)
      || foreign (Lock_mgr.exclusive_waiter t.locks resource)
    in
    if foreign_writer then false
    else begin
      let holders =
        match Hashtbl.find_opt t.copies page_id with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.replace t.copies page_id h;
          h
      in
      Hashtbl.replace holders client ();
      true
    end
  end
  else false

let note_dropped t ~client page_id =
  match Hashtbl.find_opt t.copies page_id with
  | None -> ()
  | Some holders ->
    Hashtbl.remove holders client;
    if Hashtbl.length holders = 0 then Hashtbl.remove t.copies page_id

let copies_of t page_id =
  match Hashtbl.find_opt t.copies page_id with
  | None -> []
  | Some holders -> List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) holders [])

(* Sanitizer back door: the server's authoritative bytes for a page
   (pool if resident, else the volume via [Disk.peek]), with no charge,
   no counter bump, and no fault draw — observing a page for a QSan
   crosscheck must never perturb the run. *)
let peek_page t page_id dst =
  match Buf_pool.lookup t.pool page_id with
  | Some f -> Bytes.blit (Buf_pool.frame_bytes t.pool f) 0 dst 0 Page.page_size
  | None -> Disk.peek t.disk page_id dst

(* Before an exclusive page grant, recall the page from every *other*
   registered holder. Runs synchronously inside the requester's (masked)
   RPC in sorted holder order, each recall charged to
   [Category.Callback] — so delivery order and its clock advance are a
   deterministic function of the seed and show up in the interleaving
   digest. A holder that answers:
   - [Recall_dropped] invalidated the clean copy; remove it here.
   - [Recall_deferred] has the page dirty or pinned inside its own
     active transaction, protected by its own conflicting lock, so the
     requester blocks in [Lock_mgr] right after this — never a silent
     invalidation. The copy entry stays until the holder finishes and
     notes the drop.
   - [Recall_dead] is a crashed/re-registered client (stale endpoint):
     forget it entirely. *)
let issue_callbacks t ?client resource mode =
  match (resource, mode) with
  | Lock_mgr.Page_lock page_id, Lock_mgr.Exclusive when Hashtbl.length t.registered > 0 -> (
    match Hashtbl.find_opt t.copies page_id with
    | None -> ()
    | Some holders ->
      let others =
        Hashtbl.fold
          (fun cid () acc ->
            if match client with Some me -> cid <> me | None -> true then cid :: acc else acc)
          holders []
        |> List.sort compare
      in
      List.iter
        (fun cid ->
          match Hashtbl.find_opt t.registered cid with
          | None -> Hashtbl.remove holders cid
          | Some recall ->
            t.counters.callbacks_sent <- t.counters.callbacks_sent + 1;
            Qs_trace.charge t.clock Simclock.Category.Callback
              t.cm.Simclock.Cost_model.callback_us;
            let verdict = recall page_id in
            if Qs_trace.enabled t.clock then
              Qs_trace.instant t.clock ~cat:"esm"
                ~args:
                  [ Qs_trace.A_int ("page", page_id)
                  ; Qs_trace.A_int ("holder", cid)
                  ; Qs_trace.A_str
                      ( "verdict"
                      , match verdict with
                        | Recall_dropped -> "dropped"
                        | Recall_deferred -> "deferred"
                        | Recall_dead -> "dead" ) ]
                "callback.recall";
            (match verdict with
             | Recall_dropped -> Hashtbl.remove holders cid
             | Recall_deferred ->
               t.counters.callbacks_deferred <- t.counters.callbacks_deferred + 1
             | Recall_dead -> forget_client t cid))
        others;
      if Hashtbl.length holders = 0 then Hashtbl.remove t.copies page_id)
  | _ -> ()

let active_txns t = Hashtbl.length t.txns

let set_txn_age t ~txn ~age =
  serve @@ fun () ->
  check_up t;
  Lock_mgr.set_age t.locks ~txn ~age

(* The active transaction's record, or [Bad_txn]. *)
let check_active t txn op =
  check_up t;
  match Hashtbl.find_opt t.txns txn with Some x -> x | None -> raise (Bad_txn { op; txn })

let category_of_kind = function
  | Data | Index -> Simclock.Category.Data_io
  | Map -> Simclock.Category.Map_io

(* The server re-issues a transiently failed local disk write; each
   re-issue redraws the fault and charges the write cost to Retry.
   Injected crashes (torn writes) are not retryable and propagate. *)
let disk_write_retrying t page_id bytes =
  let rec go attempt =
    match Disk.write t.disk page_id bytes with
    | () -> ()
    | exception (Qs_fault.Io_error _ as e) ->
      if attempt >= 2 then raise e
      else begin
        Qs_trace.charge t.clock Simclock.Category.Retry
          t.cm.Simclock.Cost_model.server_disk_write_us;
        if Qs_trace.enabled t.clock then
          Qs_trace.instant t.clock ~cat:"esm"
            ~args:[ Qs_trace.A_int ("page", page_id); Qs_trace.A_int ("attempt", attempt + 1) ]
            "retry.disk_write";
        go (attempt + 1)
      end
  in
  go 0

(* Write a dirty server frame to disk (server-pool eviction under
   memory pressure); charged as part of serving the current request. *)
let flush_frame ?(charged = true) t frame =
  match Buf_pool.page_of_frame t.pool frame with
  | None -> ()
  | Some page_id ->
    if Buf_pool.is_dirty t.pool frame then begin
      (* WAL rule: no dirty page reaches the volume before its log
         records are durable — the eviction may be stealing uncommitted
         bytes whose before-images must survive a crash. The force
         piggybacks on this sequential write and is not charged
         separately. wal.force_partial: this force too can be cut
         mid-stream (QS013) — a seeded fraction of the unforced tail
         becomes durable, then the process dies before the page write. *)
      Qs_fault.hit t.fault Qs_fault.Point.Wal_force_partial ~on_fire:(fun ~frac ->
          ignore (Wal.force_upto t.wal (int_of_float (frac *. float_of_int (Wal.unforced t.wal)))));
      ignore (Wal.force t.wal);
      disk_write_retrying t page_id (Buf_pool.frame_bytes t.pool frame);
      if charged then
        Qs_trace.charge t.clock Simclock.Category.Data_io t.cm.Simclock.Cost_model.server_disk_write_us;
      if Qs_trace.enabled t.clock then
        Qs_trace.instant t.clock ~cat:"esm" ~args:[ Qs_trace.A_int ("page", page_id) ] "disk.write";
      Buf_pool.clear_dirty t.pool frame
    end

let take_frame ?charged t =
  match Buf_pool.free_frame t.pool with
  | Some f -> f
  | None ->
    let f = Buf_pool.clock_victim t.pool in
    flush_frame ?charged t f;
    Buf_pool.evict t.pool f;
    f

(* The page's server-resident bytes, loading from disk if needed.
   [charge_miss] charges the disk read to [cat]. *)
let resident_bytes t ~cat ~charge_miss page_id =
  match Buf_pool.lookup t.pool page_id with
  | Some f ->
    Buf_pool.set_ref_bit t.pool f true;
    (f, true)
  | None ->
    let f = take_frame t in
    Disk.read t.disk page_id (Buf_pool.frame_bytes t.pool f);
    if charge_miss then Qs_trace.charge t.clock cat t.cm.Simclock.Cost_model.server_disk_read_us;
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"esm" ~args:[ Qs_trace.A_int ("page", page_id) ] "disk.read";
    Buf_pool.install t.pool ~frame:f ~page_id;
    (f, false)

let read_page t ~txn ~kind page_id dst =
  serve @@ fun () ->
  ignore (check_active t txn "read_page");
  let c = t.counters in
  c.client_reads <- c.client_reads + 1;
  (match kind with
   | Data -> c.client_reads_data <- c.client_reads_data + 1
   | Map -> c.client_reads_map <- c.client_reads_map + 1
   | Index -> c.client_reads_index <- c.client_reads_index + 1);
  let cat = category_of_kind kind in
  let f, hit = resident_bytes t ~cat ~charge_miss:true page_id in
  if hit then c.server_pool_hits <- c.server_pool_hits + 1;
  Qs_trace.charge t.clock cat t.cm.Simclock.Cost_model.net_ship_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm"
      ~args:
        [ Qs_trace.A_int ("page", page_id)
        ; Qs_trace.A_str ("kind", match kind with Data -> "data" | Map -> "map" | Index -> "index")
        ; Qs_trace.A_int ("server_hit", if hit then 1 else 0) ]
      "ship.read";
  Bytes.blit (Buf_pool.frame_bytes t.pool f) 0 dst 0 Page.page_size

(* Multi-page fetch (fault-time prefetch): every page of the run is
   served in one round trip. The run's pool misses are read as one
   disk batch — one seek ([disk_seek_us]) plus a media transfer per
   page — and the run ships for a single [net_ship_us], which is where
   prefetch wins over [List.length pages] individual [read_page]
   calls. Each page still counts as one client read. A transient
   [Disk] fault propagates with the pages read so far already
   installed in the server pool, so the client's retry is idempotent
   (re-served pages become hits). *)
let read_page_run t ~txn ~kind pages =
  serve @@ fun () ->
  ignore (check_active t txn "read_page_run");
  let c = t.counters in
  let cat = category_of_kind kind in
  let cm = t.cm in
  let misses = ref 0 in
  List.iter
    (fun (page_id, dst) ->
      c.client_reads <- c.client_reads + 1;
      (match kind with
       | Data -> c.client_reads_data <- c.client_reads_data + 1
       | Map -> c.client_reads_map <- c.client_reads_map + 1
       | Index -> c.client_reads_index <- c.client_reads_index + 1);
      let f, hit = resident_bytes t ~cat ~charge_miss:false page_id in
      if hit then c.server_pool_hits <- c.server_pool_hits + 1 else incr misses;
      Bytes.blit (Buf_pool.frame_bytes t.pool f) 0 dst 0 Page.page_size)
    pages;
  if !misses > 0 then begin
    Qs_trace.charge t.clock cat cm.Simclock.Cost_model.disk_seek_us;
    Qs_trace.charge_n t.clock cat !misses cm.Simclock.Cost_model.disk_transfer_page_us
  end;
  Qs_trace.charge t.clock cat cm.Simclock.Cost_model.net_ship_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm"
      ~args:
        [ Qs_trace.A_int ("pages", List.length pages)
        ; Qs_trace.A_int ("misses", !misses)
        ; Qs_trace.A_str ("kind", match kind with Data -> "data" | Map -> "map" | Index -> "index")
        ]
      "ship.read_run"

let zero_page = Bytes.make Page.page_size '\000'

(* The undo regions of transaction [x] on [page]: its Update records'
   spans merged into ascending maximal runs, each byte carrying the
   oldest before-image logged for it — the page as it stood before [x]
   first wrote it. The records are newest first, so the last blit wins. *)
let undo_regions x page =
  let before = Bytes.create Page.page_size in
  let covered = Bytes.make Page.page_size '\000' in
  List.iter
    (function
      | Wal.Update { page = p; off; old_data; _ } when p = page ->
        Bytes.blit old_data 0 before off (Bytes.length old_data);
        Bytes.fill covered off (Bytes.length old_data) '\001'
      | _ -> ())
    x.updates;
  (* the covered runs are where [covered] differs from a zero page *)
  List.map
    (fun (off, len) -> (off, Bytes.sub before off len))
    (Qs_util.Codec.diff_regions ~old_bytes:zero_page ~new_bytes:covered ~gap:0)

(* Commit-time version push: each page the transaction shipped gets an
   undo delta built from its own log records, stamped with the COMMIT
   record's LSN — the first point at which the writes are visible, and
   therefore the version boundary a snapshot begun mid-transaction must
   not cross. *)
let push_versions t x ~commit_lsn =
  match t.versions with
  | None -> ()
  | Some vs ->
    Hashtbl.fold (fun p () acc -> p :: acc) x.dirty []
    |> List.sort compare
    |> List.iter (fun page ->
           let current = Bytes.create Page.page_size in
           peek_page t page current;
           Version_store.push vs ~page ~regions:(undo_regions x page) ~current ~commit_lsn)

(* Commit-ship time eligible for the pipeline credit (tracked only when
   pipelining is on). *)
let note_ship_us t x us = if t.pipeline_commit then x.ship_us <- x.ship_us +. us

let write_page t ~txn ~at_commit page_id src =
  serve @@ fun () ->
  let x = check_active t txn "write_page" in
  Qs_fault.hit t.fault
    (if at_commit then Qs_fault.Point.Commit_ship_page else Qs_fault.Point.Evict_steal_write);
  t.counters.client_writes <- t.counters.client_writes + 1;
  let cm = t.cm in
  if at_commit then begin
    Qs_trace.charge t.clock Simclock.Category.Commit_flush cm.Simclock.Cost_model.commit_flush_page_us;
    note_ship_us t x cm.Simclock.Cost_model.commit_flush_page_us
  end
  else Qs_trace.charge t.clock Simclock.Category.Data_io cm.Simclock.Cost_model.net_ship_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm"
      ~args:[ Qs_trace.A_int ("page", page_id) ]
      (if at_commit then "ship.commit" else "ship.steal");
  let f =
    match Buf_pool.lookup t.pool page_id with
    | Some f -> f
    | None ->
      let f = take_frame t in
      Buf_pool.install t.pool ~frame:f ~page_id;
      f
  in
  Bytes.blit src 0 (Buf_pool.frame_bytes t.pool f) 0 Page.page_size;
  Buf_pool.mark_dirty t.pool f;
  Buf_pool.set_ref_bit t.pool f true;
  Hashtbl.replace x.dirty page_id ()

(* Diff-shipping commit: patch [regions] — (offset, bytes) pairs diffed
   by the client against its recovery-buffer snapshot — onto the
   server's copy of the page in place, reading the base page from disk
   first (charged) when it is not server-resident. The base page is
   valid to patch because every ship path (commit ship, mid-transaction
   steal, abort undo) leaves the server's copy equal to the image the
   client snapshotted at write-fault time.

   Idempotency: the client assigns each ship a per-client sequence
   number once, before any retry, and the server records it (per
   transaction) only after every region of the ship has been applied.
   A retried or duplicated delivery of an applied ship charges its
   wire cost again but patches nothing, so Net_dup / retry-after-drop
   cannot double-apply — not that a double apply of absolute bytes
   would change the page, but the guard keeps the protocol honest and
   QSan checks it. [check], passed under QSan, is the client's own
   disk-format page image; the patched server page must equal it
   byte-for-byte. *)
let apply_regions t ~txn ~seq ?check page_id regions =
  serve @@ fun () ->
  let x = check_active t txn "apply_regions" in
  Qs_fault.hit t.fault Qs_fault.Point.Commit_ship_region;
  let cm = t.cm in
  let nregions = List.length regions in
  let nbytes =
    List.fold_left
      (fun acc (off, data) ->
        let len = Bytes.length data in
        if off < 0 || len < 0 || off + len > Page.page_size then
          invalid_arg "Server.apply_regions: region out of page bounds";
        acc + len)
      0 regions
  in
  Qs_trace.charge_n t.clock Simclock.Category.Commit_flush nregions
    cm.Simclock.Cost_model.ship_region_us;
  Qs_trace.charge t.clock Simclock.Category.Commit_flush
    (float_of_int nbytes *. cm.Simclock.Cost_model.ship_byte_us);
  note_ship_us t x
    ((float_of_int nregions *. cm.Simclock.Cost_model.ship_region_us)
    +. (float_of_int nbytes *. cm.Simclock.Cost_model.ship_byte_us));
  let f, _hit = resident_bytes t ~cat:Simclock.Category.Commit_flush ~charge_miss:true page_id in
  let b = Buf_pool.frame_bytes t.pool f in
  let duplicate = Hashtbl.mem x.ships seq in
  if not duplicate then begin
    (* commit.region_torn: the apply dies partway — only a seeded
       prefix of the regions lands in the (volatile) server pool, and
       the sequence number is never recorded, so a restarted commit
       re-applies from scratch. *)
    Qs_fault.hit t.fault Qs_fault.Point.Commit_region_torn ~on_fire:(fun ~frac ->
        let keep = int_of_float (frac *. float_of_int nregions) in
        List.iteri
          (fun i (off, data) ->
            if i < keep then Bytes.blit data 0 b off (Bytes.length data))
          regions;
        Buf_pool.mark_dirty t.pool f);
    List.iter (fun (off, data) -> Bytes.blit data 0 b off (Bytes.length data)) regions;
    Hashtbl.replace x.ships seq ();
    t.counters.client_region_ships <- t.counters.client_region_ships + 1;
    t.counters.region_bytes_shipped <- t.counters.region_bytes_shipped + nbytes
  end;
  Buf_pool.mark_dirty t.pool f;
  Buf_pool.set_ref_bit t.pool f true;
  Hashtbl.replace x.dirty page_id ();
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm"
      ~args:
        [ Qs_trace.A_int ("page", page_id)
        ; Qs_trace.A_int ("regions", nregions)
        ; Qs_trace.A_int ("bytes", nbytes)
        ; Qs_trace.A_int ("dup", if duplicate then 1 else 0) ]
      "ship.regions";
  match check with
  | None -> ()
  | Some expect ->
    if not (Bytes.equal b expect) then
      Qs_util.Sanitizer.fail ~check:"region-apply"
        ~subject:(Printf.sprintf "page %d" page_id)
        "patched server page differs from the client's image (%d regions, %d bytes%s)"
        nregions nbytes
        (if duplicate then ", duplicate ship" else "")

let alloc_page t =
  serve @@ fun () ->
  Qs_trace.charge t.clock Simclock.Category.Lock_acquire t.cm.Simclock.Cost_model.lock_us;
  Disk.alloc t.disk

let lock ?client t ~txn resource mode =
  serve @@ fun () ->
  ignore (check_active t txn "lock");
  (* Charge only when the request actually goes to the lock manager
     (repeat requests on held locks are free client-side checks). *)
  let already =
    match (Lock_mgr.held t.locks ~txn resource, mode) with
    | Some Lock_mgr.Exclusive, _ -> true
    | Some Lock_mgr.Shared, Lock_mgr.Shared -> true
    | Some Lock_mgr.Shared, Lock_mgr.Exclusive | None, _ -> false
  in
  if not already then begin
    (* Callback locking: recall the page from other caching clients
       before the exclusive request reaches the lock manager. (Once
       this txn holds X, no other client can form a new copy — a read
       needs S — so repeat X requests need no recalls.) *)
    issue_callbacks t ?client resource mode;
    Qs_trace.charge t.clock Simclock.Category.Lock_acquire t.cm.Simclock.Cost_model.lock_us;
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"esm"
        ~args:
          [ (match resource with
             | Lock_mgr.Page_lock p -> Qs_trace.A_int ("page", p)
             | Lock_mgr.File_lock f -> Qs_trace.A_int ("file", f))
          ; Qs_trace.A_str
              ("mode", match mode with Lock_mgr.Shared -> "shared" | Lock_mgr.Exclusive -> "exclusive")
          ]
        "lock.acquire"
  end;
  if Sched.active () then
    (* Multi-client: park the requester instead of failing fast. The
       wait suspends inside this (masked) RPC — a legal scheduling
       point — and is charged to Lock_wait when it resumes. A crash of
       this server while the requester is parked cancels the wait with
       Server_down rather than letting it sit out the full timeout. *)
    Lock_mgr.acquire_blocking t.locks ~txn resource mode ~wait:(fun ~what ~check ->
        let check () = if Qs_fault.halted t.fault then Sched.Cancel Server_down else check () in
        if Qs_trace.enabled t.clock then
          Qs_trace.instant t.clock ~cat:"esm"
            ~args:
              [ (match resource with
                 | Lock_mgr.Page_lock p -> Qs_trace.A_int ("page", p)
                 | Lock_mgr.File_lock f -> Qs_trace.A_int ("file", f))
              ; Qs_trace.A_int ("txn", txn) ]
            "lock.block";
        match
          Sched.block_on ~timeout_us:t.cm.Simclock.Cost_model.lock_wait_timeout_us ~what check
        with
        | us ->
          (* The wake already advanced this task's vt across the wait;
             the charge records it in the breakdown and the rebate
             keeps it from advancing vt twice. *)
          Qs_trace.charge t.clock Simclock.Category.Lock_wait us;
          Sched.rebate us;
          us
        | exception (Sched.Timeout { waited_us; _ } as e) ->
          Qs_trace.charge t.clock Simclock.Category.Lock_wait waited_us;
          Sched.rebate waited_us;
          raise e)
  else Lock_mgr.acquire t.locks ~txn resource mode

let lock_held t ~txn resource = Lock_mgr.held t.locks ~txn resource

(* --- snapshot-isolation reads ------------------------------------- *)

let set_versioning ?max_deltas t on =
  serve @@ fun () ->
  check_up t;
  if on then begin
    if Hashtbl.length t.txns > 0 then invalid_arg "Server.set_versioning: transactions active";
    t.versions <- Some (Version_store.create ?max_deltas ~enable_lsn:(Wal.last_lsn t.wal) ())
  end
  else begin
    t.versions <- None;
    Hashtbl.reset t.snapshots
  end

let versioning t = t.versions <> None
let version_stats t = Option.map Version_store.stats t.versions

let version_chain t page_id =
  match t.versions with None -> None | Some vs -> Version_store.chain vs page_id

let version_bytes_retained t =
  match t.versions with None -> 0 | Some vs -> Version_store.bytes_retained vs

(* Oldest LSN any active snapshot can still ask for; with none active,
   every retained delta is reclaimable. *)
let snapshot_watermark t =
  Hashtbl.fold
    (fun _ lsn acc -> match acc with None -> Some lsn | Some a -> Some (min a lsn))
    t.snapshots None

let trim_versions t =
  match t.versions with
  | None -> ()
  | Some vs ->
    let watermark =
      match snapshot_watermark t with Some w -> w | None -> Wal.last_lsn t.wal
    in
    Version_store.trim vs ~watermark ~on_trim:(fun () ->
        Qs_fault.hit t.fault Qs_fault.Point.Snapshot_trim)

let begin_snapshot t =
  serve @@ fun () ->
  check_up t;
  (match t.versions with
   | None -> invalid_arg "Server.begin_snapshot: versioning off"
   | Some _ -> ());
  let id = t.next_snapshot in
  t.next_snapshot <- id + 1;
  let lsn = Wal.last_lsn t.wal in
  Hashtbl.replace t.snapshots id lsn;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm"
      ~args:[ Qs_trace.A_int ("snap", id); Qs_trace.A_int ("lsn", Int64.to_int lsn) ]
      "snapshot.begin";
  (id, lsn)

(* Releasing a snapshot moves the watermark, so reclamation rides the
   release: chains drop every delta no remaining reader can need. *)
let end_snapshot t ~snap =
  serve @@ fun () ->
  check_up t;
  if Hashtbl.mem t.snapshots snap then begin
    Hashtbl.remove t.snapshots snap;
    trim_versions t;
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"esm" ~args:[ Qs_trace.A_int ("snap", snap) ] "snapshot.end"
  end

(* QSan cross-check: the materialized image must equal a from-scratch
   WAL replay — base image plus every Update of a transaction whose
   COMMIT record falls in (base_lsn, snapshot] — modulo the page-LSN
   header bytes (abort compensation restamps them without a commit).
   Skipped when a checkpoint truncated records the replay would need. *)
let verify_snapshot_page t ~snapshot page_id dst =
  match t.versions with
  | None -> ()
  | Some vs ->
    (match Version_store.chain vs page_id with
     | None -> ()
     | Some c ->
       if Wal.base_lsn t.wal <= c.Version_store.base_lsn then begin
         let img = Bytes.copy c.Version_store.base_image in
         let commits = Hashtbl.create 32 in
         Wal.iter_all
           (fun lsn r -> match r with Wal.Commit txn -> Hashtbl.replace commits txn lsn | _ -> ())
           t.wal;
         Wal.iter_all
           (fun _ r ->
             match r with
             | Wal.Update { txn; page; off; new_data; _ } when page = page_id -> (
               match Hashtbl.find_opt commits txn with
               | Some cl when cl > c.Version_store.base_lsn && cl <= snapshot ->
                 Bytes.blit new_data 0 img off (Bytes.length new_data)
               | Some _ | None -> ())
             | _ -> ())
           t.wal;
         let mismatch = ref (-1) in
         for i = Page.page_size - 1 downto 0 do
           (* bytes 8..15 hold the page LSN the header stamp may differ on *)
           if (i < 8 || i > 15) && Bytes.get img i <> Bytes.get dst i then mismatch := i
         done;
         if !mismatch >= 0 then
           Qs_util.Sanitizer.fail ~check:"snapshot-replay"
             ~subject:(Printf.sprintf "page %d" page_id)
             "materialized snapshot at LSN %Ld differs from WAL replay at byte %d (chain base \
              %Ld, %d deltas retained)"
             snapshot !mismatch c.Version_store.base_lsn
             (List.length c.Version_store.deltas)
       end)

(* The snapshot read itself: no lock-manager request anywhere on this
   path — the reader never joins a waits-for graph, never gets
   wounded, and never triggers a callback recall. The page is
   materialized as of the snapshot LSN from the newest committed image
   by applying undo deltas, all charged to [Category.Snapshot_read]. *)
let read_page_at t ~snap ?(verify = false) page_id dst =
  serve @@ fun () ->
  check_up t;
  let vs =
    match t.versions with
    | Some vs -> vs
    | None -> invalid_arg "Server.read_page_at: versioning off"
  in
  let snapshot =
    match Hashtbl.find_opt t.snapshots snap with
    | Some lsn -> lsn
    | None -> invalid_arg "Server.read_page_at: unknown snapshot"
  in
  Qs_fault.hit t.fault Qs_fault.Point.Snapshot_materialize;
  let cm = t.cm in
  let cat = Simclock.Category.Snapshot_read in
  (* A page an in-flight writer has shipped holds uncommitted bytes:
     its committed image is the uncharged server copy rolled back
     through the writer's own log records (X page locks allow at most
     one such writer; the lowest id is taken for determinism). Else the
     authoritative server bytes, installed in the pool like any other
     read; the miss is a real disk read, charged to the snapshot
     category. *)
  let writers =
    Hashtbl.fold
      (fun txn x acc -> if Hashtbl.mem x.dirty page_id then (txn, x) :: acc else acc)
      t.txns []
  in
  let stable =
    match List.sort (fun (a, _) (b, _) -> compare a b) writers with
    | (_, x) :: _ ->
      let b = Bytes.create Page.page_size in
      peek_page t page_id b;
      List.iter (fun (off, r) -> Bytes.blit r 0 b off (Bytes.length r)) (undo_regions x page_id);
      b
    | [] ->
      let f, hit = resident_bytes t ~cat ~charge_miss:true page_id in
      if hit then t.counters.server_pool_hits <- t.counters.server_pool_hits + 1;
      Buf_pool.frame_bytes t.pool f
  in
  let applied = Version_store.materialize vs ~page:page_id ~snapshot ~stable dst in
  t.counters.snapshot_reads <- t.counters.snapshot_reads + 1;
  t.counters.snapshot_deltas_applied <- t.counters.snapshot_deltas_applied + applied;
  Qs_trace.charge_n t.clock cat applied cm.Simclock.Cost_model.ship_region_us;
  Qs_trace.charge t.clock cat cm.Simclock.Cost_model.net_ship_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm"
      ~args:
        [ Qs_trace.A_int ("page", page_id)
        ; Qs_trace.A_int ("snap", snap)
        ; Qs_trace.A_int ("deltas", applied) ]
      "snapshot.read";
  if verify then verify_snapshot_page t ~snapshot page_id dst

let log_update t ~txn ~page ~off ~old_data ~new_data =
  serve @@ fun () ->
  let x = check_active t txn "log_update" in
  Qs_trace.charge t.clock Simclock.Category.Log_write t.cm.Simclock.Cost_model.log_record_cpu_us;
  let record = Wal.Update { txn; page; off; old_data; new_data } in
  let lsn = Wal.append t.wal record in
  x.updates <- record :: x.updates;
  lsn

let log_index t ~txn record =
  serve @@ fun () ->
  let x = check_active t txn "log_index" in
  (match record with
   | Wal.Index_insert _ | Wal.Index_delete _ -> ()
   | Wal.Begin _ | Wal.Update _ | Wal.Commit _ | Wal.Abort _ ->
     invalid_arg "Server.log_index: not an index record");
  Qs_trace.charge t.clock Simclock.Category.Log_write t.cm.Simclock.Cost_model.log_record_cpu_us;
  let lsn = Wal.append t.wal record in
  x.updates <- record :: x.updates;
  lsn

let set_index_undo t f = t.index_undo <- f

let force_log ?(overlap_us = 0.0) ?committer t =
  (* wal.force_partial: the force is cut mid-stream — a seeded fraction
     of the unforced tail becomes durable, then the process dies. *)
  Qs_fault.hit t.fault Qs_fault.Point.Wal_force_partial ~on_fire:(fun ~frac ->
      ignore (Wal.force_upto t.wal (int_of_float (frac *. float_of_int (Wal.unforced t.wal)))));
  let full_pages_before = Wal.forced_bytes t.wal / Page.page_size in
  let pages = Wal.force t.wal in
  (* Group commit: a force arriving within the window of the previous
     charged force, whose only newly written page is the same partial
     tail page that force already rewrote, rides the in-flight disk
     write (§3.5's delayed-write discipline applied to the log).
     Durability is unchanged — the records are forced above either
     way; only the disk charge coalesces. *)
  let coalesced =
    t.group_commit
    && pages = 1
    && (match t.last_force with
        | Some (ts, full_pages) ->
          full_pages = full_pages_before
          && Simclock.Clock.total_us t.clock -. ts
             <= t.cm.Simclock.Cost_model.group_commit_window_us
        | None -> false)
  in
  if coalesced then begin
    (* Count the ride; a ride whose owner differs from the charged
       force's owner is the cross-client batching the copy-table era
       makes common (different clients committing inside one window). *)
    t.counters.gc_rides <- t.counters.gc_rides + 1;
    (match committer with
     | Some c ->
       if t.last_force_by <> None && t.last_force_by <> Some c then
         t.counters.gc_cross_rides <- t.counters.gc_cross_rides + 1
     | None -> ());
    if Qs_trace.enabled t.clock then
      Qs_trace.with_span t.clock ~cat:"esm"
        ~args:[ Qs_trace.A_int ("pages_saved", pages) ]
        "group_commit"
        (fun () -> ())
  end
  else if overlap_us > 0.0 && pages > 0 then begin
    (* Pipelined commit: the records being forced were appended before
       the transaction's commit-time ships, so the disk force and the
       network ships overlap — the force only costs what the ships did
       not already cover. Durability is unchanged: the records are
       forced above either way; only the charge shrinks. *)
    let base = float_of_int pages *. t.cm.Simclock.Cost_model.server_disk_write_us in
    let credit = Float.min base overlap_us in
    Qs_trace.charge t.clock Simclock.Category.Commit_flush (base -. credit);
    if Qs_trace.enabled t.clock then
      Qs_trace.with_span t.clock ~cat:"esm"
        ~args:
          [ Qs_trace.A_int ("pages", pages); Qs_trace.A_int ("saved_us", int_of_float credit) ]
        "commit.pipeline"
        (fun () -> ());
    t.last_force <-
      Some (Simclock.Clock.total_us t.clock, Wal.forced_bytes t.wal / Page.page_size);
    t.last_force_by <- committer
  end
  else begin
    Qs_trace.charge_n t.clock Simclock.Category.Commit_flush pages
      t.cm.Simclock.Cost_model.server_disk_write_us;
    if pages > 0 then begin
      t.last_force <-
        Some (Simclock.Clock.total_us t.clock, Wal.forced_bytes t.wal / Page.page_size);
      t.last_force_by <- committer
    end
  end;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"esm" ~args:[ Qs_trace.A_int ("pages", pages) ] "wal.force"

let flush_txn_pages ?point t x =
  Hashtbl.iter
    (fun page_id () ->
      match Buf_pool.lookup t.pool page_id with
      | Some f ->
        (match point with Some p -> Qs_fault.hit t.fault p | None -> ());
        disk_write_retrying t page_id (Buf_pool.frame_bytes t.pool f);
        Buf_pool.clear_dirty t.pool f
      | None -> ())
    x.dirty

let finish_txn t txn =
  Lock_mgr.release_all t.locks ~txn;
  Hashtbl.remove t.txns txn

let commit t ~txn =
  serve @@ fun () ->
  let x = check_active t txn "commit" in
  Qs_fault.hit t.fault Qs_fault.Point.Commit_pre_log;
  let commit_lsn = Wal.append t.wal (Wal.Commit txn) in
  Qs_fault.hit t.fault Qs_fault.Point.Commit_pre_flush;
  force_log ~overlap_us:(if t.pipeline_commit then x.ship_us else 0.0) ?committer:x.owner t;
  flush_txn_pages ~point:Qs_fault.Point.Commit_mid_flush t x;
  Qs_fault.hit t.fault Qs_fault.Point.Commit_post_flush;
  push_versions t x ~commit_lsn;
  finish_txn t txn

let abort t ~txn =
  serve @@ fun () ->
  let x = check_active t txn "abort" in
  (* Apply before-images newest-first, logging each as a compensation
     update so that restart redo replays the undo as well. *)
  List.iter
    (fun rec_ ->
      Qs_fault.hit t.fault Qs_fault.Point.Abort_mid_undo;
      match rec_ with
      | Wal.Update { page; off; old_data; new_data; _ } ->
        let clr_lsn =
          Wal.append t.wal (Wal.Update { txn; page; off; old_data = new_data; new_data = old_data })
        in
        Qs_trace.charge t.clock Simclock.Category.Log_write t.cm.Simclock.Cost_model.log_record_cpu_us;
        let f, _hit = resident_bytes t ~cat:Simclock.Category.Data_io ~charge_miss:true page in
        let b = Buf_pool.frame_bytes t.pool f in
        Bytes.blit old_data 0 b off (Bytes.length old_data);
        (* Restamp the CLR LSN raw, as restart redo does: undoing a
           fresh page's header init legitimately restores an all-zero
           header, which [Page.attach] would reject. *)
        Qs_util.Codec.set_i64 b 8 clr_lsn;
        Buf_pool.mark_dirty t.pool f;
        Hashtbl.replace x.dirty page ()
      | Wal.Index_insert { root; key; oid; _ } ->
        ignore (Wal.append t.wal (Wal.Index_delete { txn; root; key; oid }));
        t.index_undo (Wal.Index_delete { txn; root; key; oid })
      | Wal.Index_delete { root; key; oid; _ } ->
        ignore (Wal.append t.wal (Wal.Index_insert { txn; root; key; oid }));
        t.index_undo (Wal.Index_insert { txn; root; key; oid })
      | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ())
    x.updates;
  ignore (Wal.append t.wal (Wal.Abort txn));
  force_log ?committer:x.owner t;
  flush_txn_pages t x;
  finish_txn t txn

(* Checkpoint: make everything durable and drop the log. Requires no
   active transactions. *)
let checkpoint t =
  serve @@ fun () ->
  if Hashtbl.length t.txns > 0 then invalid_arg "Server.checkpoint: transactions active";
  Buf_pool.iter_frames
    (fun ~frame ~page_id:_ ->
      Qs_fault.hit t.fault Qs_fault.Point.Checkpoint_mid_flush;
      flush_frame ~charged:false t frame)
    t.pool;
  Wal.truncate t.wal

let reset_cache t =
  Buf_pool.iter_frames
    (fun ~frame ~page_id:_ -> flush_frame ~charged:false t frame)
    t.pool;
  Buf_pool.clear t.pool

let crash t =
  t.pool <- Buf_pool.create ~frames:t.frames;
  t.wal <- Wal.survive_crash t.wal;
  t.locks <- Lock_mgr.create ();
  t.txns <- Hashtbl.create 8;
  t.last_force <- None;
  t.last_force_by <- None;
  (* The copy table and recall endpoints are volatile: a restarted
     server knows nothing about client caches (the classic stale
     copy-table problem), so surviving clients must crash/re-register
     before caching across transactions again. *)
  t.registered <- Hashtbl.create 8;
  t.copies <- Hashtbl.create 64;
  (* Version chains and snapshot registrations are
     volatile: a crash drops them all, and versioning itself turns off
     until the harness re-enables it after recovery (the chains must
     anchor at the recovered server's log position, not the pre-crash
     one). Snapshot clients discover the loss as an unknown-snapshot
     error and retry at a fresh LSN. *)
  t.versions <- None;
  t.snapshots <- Hashtbl.create 8;
  t.next_snapshot <- 1;
  (* The failure is taken: the restarted server may serve again. *)
  Qs_fault.clear_halt t.fault
