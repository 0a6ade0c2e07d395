[@@@qs_lint.allow "QS001"] (* object write path into pool frames; every change is ESM-logged here *)

type t = {
  server : Server.t;
  mutable pool : Buf_pool.t;
  frames : int;
  mutable policy : victim_policy;
  mutable pre_evict : (frame:int -> page_id:int -> unit) option;
  mutable pre_ship : (page_id:int -> bytes -> bytes) option;
  mutable txn : int option;
  mutable ship_seq : int;
      (* region-ship sequence numbers, assigned once per ship before
         any retry so the server can recognize re-deliveries *)
  (* --- callback locking (inter-transaction caching) --- *)
  mutable cb_id : int option;  (* server-assigned client id once registered *)
  mutable cb_gen : int;
      (* bumped on crash so a recall through a stale registration
         answers [Recall_dead] instead of touching the fresh pool *)
  mutable cb_sanitize : bool;
  pending_recall : (int, unit) Hashtbl.t;
      (* pages recalled while dirty/pinned in the active transaction:
         deferred, then dropped before the server releases our locks *)
  stolen : (int, unit) Hashtbl.t;
      (* pages shipped mid-transaction (steal): if re-read afterwards
         the cached copy holds uncommitted bytes while *clean*, so an
         abort must drop it even though it is not in [dirty_pages] *)
  installed_epoch : (int, int) Hashtbl.t;
      (* page -> cache_epoch at install; a clean hit from an earlier
         epoch is a retained inter-transaction hit *)
  mutable cache_epoch : int;  (* bumped at every transaction end *)
  mutable retained_hits : int;
  mutable recalls_dropped : int;
  mutable recalls_deferred : int;
  (* --- snapshot-isolation reads --- *)
  mutable snap : snap option;
  mutable snapshot_retries : int;  (* Snapshot_too_old retries at a fresh LSN *)
}

and victim_policy = Traditional | External of (t -> int)

(* A read-only snapshot transaction: its pages live in a private pool —
   never registered in the copy table, never recalled, never diffed —
   so the main cache's callback state and the snapshot's as-of-LSN
   bytes cannot contaminate each other. *)
and snap = {
  snap_id : int;
  snap_lsn : int64;
  snap_pool : Buf_pool.t;
  snap_sanitize : bool;  (* QSan: server verifies each page against WAL replay *)
}

exception No_transaction
exception Dangling_reference of Oid.t

type degradation = { op : string; page : int; attempts : int; cause : exn }

exception Degraded of degradation

type cb_stats = { retained_hits : int; recalls_dropped : int; recalls_deferred : int }

let max_retries = 5

let create ?(frames = 1536) server =
  { server
  ; pool = Buf_pool.create ~frames
  ; frames
  ; policy = Traditional
  ; pre_evict = None
  ; pre_ship = None
  ; txn = None
  ; ship_seq = 0
  ; cb_id = None
  ; cb_gen = 0
  ; cb_sanitize = false
  ; pending_recall = Hashtbl.create 8
  ; stolen = Hashtbl.create 8
  ; installed_epoch = Hashtbl.create 64
  ; cache_epoch = 0
  ; retained_hits = 0
  ; recalls_dropped = 0
  ; recalls_deferred = 0
  ; snap = None
  ; snapshot_retries = 0 }

let set_victim_policy t p = t.policy <- p
let server t = t.server
let pool t = t.pool
let clock t = Server.clock t.server
let cost_model t = Server.cost_model t.server
let set_pre_evict_hook t f = t.pre_evict <- Some f
let set_pre_ship_hook t f = t.pre_ship <- Some f

let ship_bytes t page_id b =
  match t.pre_ship with Some f -> f ~page_id b | None -> b
let in_txn t = t.txn <> None

(* --- callback locking: copy-table bookkeeping --- *)

let client_id t = t.cb_id

let callback_stats (t : t) =
  { retained_hits = t.retained_hits
  ; recalls_dropped = t.recalls_dropped
  ; recalls_deferred = t.recalls_deferred }

(* Tell the server we now cache the page (piggybacked on the read
   reply — no charge) and stamp the install epoch for retained-hit
   accounting. If the server refuses to track the copy (a foreign
   writer already holds the page exclusively, so no recall will ever
   reach us) the page is marked recall-pending: usable this
   transaction, dropped at its end. No-ops when callbacks are off. *)
let cb_note_cached t page_id =
  match t.cb_id with
  | None -> ()
  | Some id ->
    if Server.note_cached t.server ~client:id page_id then
      Hashtbl.replace t.installed_epoch page_id t.cache_epoch
    else begin
      Hashtbl.remove t.installed_epoch page_id;
      Hashtbl.replace t.pending_recall page_id ()
    end

(* Tell the server the copy is gone (eviction, abort-drop);
   any pending recall of the page is thereby answered. *)
let cb_note_dropped t page_id =
  match t.cb_id with
  | None -> ()
  | Some id ->
    Server.note_dropped t.server ~client:id page_id;
    Hashtbl.remove t.installed_epoch page_id;
    Hashtbl.remove t.pending_recall page_id

(* A clean cache hit on a page installed in an earlier transaction is
   the protocol's payoff: a retained inter-transaction hit. Under QSan
   the retained bytes must equal the server's authoritative copy —
   byte equality covers the page LSN, so retained pages are verified
   byte- and LSN-exact. (Pages under a pending recall are excluded:
   they are deferred precisely because this transaction is still
   changing them.) The epoch re-stamp counts each page at most once
   per transaction. *)
let cb_on_hit t frame page_id =
  if
    t.cb_id <> None
    && (not (Buf_pool.is_dirty t.pool frame))
    && not (Hashtbl.mem t.pending_recall page_id)
  then
    match Hashtbl.find_opt t.installed_epoch page_id with
    | Some e when e < t.cache_epoch ->
      t.retained_hits <- t.retained_hits + 1;
      Hashtbl.replace t.installed_epoch page_id t.cache_epoch;
      if t.cb_sanitize then begin
        let expect = Bytes.create Page.page_size in
        Server.peek_page t.server page_id expect;
        (* Compare in disk format: a store may keep the frame swizzled
           in memory (clean, yet legitimately different bytes), and
           [ship_bytes] is exactly the canonicalization a commit-time
           ship would apply. Raw clients have no hook, so this is the
           frame itself. *)
        let mine = ship_bytes t page_id (Buf_pool.frame_bytes t.pool frame) in
        if not (Bytes.equal mine expect) then begin
          let diff = ref (-1) in
          (try
             for i = 0 to Page.page_size - 1 do
               if Bytes.get mine i <> Bytes.get expect i then begin
                 diff := i;
                 raise Exit
               end
             done
           with Exit -> ());
          Qs_util.Sanitizer.fail ~check:"retained-page"
            ~subject:(Printf.sprintf "page %d" page_id)
            "retained clean page differs from the server's copy (cached epoch %d, now %d; \
             first diff at offset %d, lsn %Ld vs server %Ld)"
            e t.cache_epoch !diff
            (Page.lsn (Page.attach mine))
            (Page.lsn (Page.attach expect))
        end
      end
    | _ -> ()

(* --- robustness layer: every client↔server request goes through here ---

   [net_request] consults the injector on the message itself: a dropped
   request is discovered by waiting out the timeout; a duplicate is
   served twice (page reads and whole-page ships are idempotent); a
   delay charges extra latency before delivery. [rpc] then bounds the
   retries of transient failures with exponential backoff charged to
   the clock, surfacing a typed [Degraded] once the budget exhausts.
   Scheduled crashes ([Injected_crash], [Server_down]) are not
   transient and propagate. *)

let charge_retry t us = Qs_trace.charge (Server.clock t.server) Simclock.Category.Retry us

let net_instant t ~op ~page name =
  if Qs_trace.enabled (Server.clock t.server) then
    Qs_trace.instant (Server.clock t.server) ~cat:"net"
      ~args:[ Qs_trace.A_str ("op", op); Qs_trace.A_int ("page", page) ]
      name

let net_request t ~op ~page (serve : unit -> unit) =
  match Qs_fault.net_gate (Server.fault_injector t.server) ~op ~page with
  | Qs_fault.Net_ok -> serve ()
  | Qs_fault.Net_drop ->
    charge_retry t (cost_model t).Simclock.Cost_model.net_timeout_us;
    net_instant t ~op ~page "net.drop";
    raise (Qs_fault.Net_error { op; page })
  | Qs_fault.Net_dup ->
    net_instant t ~op ~page "net.dup";
    serve ();
    serve ()
  | Qs_fault.Net_delay us ->
    charge_retry t us;
    net_instant t ~op ~page "net.delay";
    serve ()

let rpc t ~op ~page (f : unit -> 'a) : 'a =
  let rec go attempt =
    match f () with
    | v -> v
    | exception ((Qs_fault.Io_error _ | Qs_fault.Net_error _) as cause) ->
      let attempts = attempt + 1 in
      if attempts >= max_retries then raise (Degraded { op; page; attempts; cause })
      else begin
        charge_retry t
          ((cost_model t).Simclock.Cost_model.retry_backoff_us *. float_of_int (1 lsl attempt));
        if Qs_trace.enabled (Server.clock t.server) then
          Qs_trace.instant (Server.clock t.server) ~cat:"net"
            ~args:
              [ Qs_trace.A_str ("op", op)
              ; Qs_trace.A_int ("page", page)
              ; Qs_trace.A_int ("attempt", attempts) ]
            "retry.rpc";
        go attempts
      end
  in
  go 0

let txn_id t = match t.txn with Some id -> id | None -> raise No_transaction

let begin_txn t =
  if in_txn t then invalid_arg "Client.begin_txn: transaction already active";
  t.txn <- Some (Server.begin_txn ?client:t.cb_id t.server)

let page_bytes t ~frame = Buf_pool.frame_bytes t.pool frame
let frame_of_page t page_id = Buf_pool.lookup t.pool page_id
let mark_dirty t ~frame = Buf_pool.mark_dirty t.pool frame

(* Ship one dirty page to the server through the faultable network
   path, retrying transient failures. The pre-ship transform runs once:
   retries resend the same bytes. *)
let ship_page t ~txn ~at_commit page_id bytes =
  let b = ship_bytes t page_id bytes in
  Qs_trace.with_span (Server.clock t.server) ~cat:"esm" "ship.page" (fun () ->
      rpc t ~op:"write_page" ~page:page_id (fun () ->
          net_request t ~op:"write_page" ~page:page_id (fun () ->
              Server.write_page t.server ~txn ~at_commit page_id b)))

(* Diff-shipping commit: ship only the modified (offset, bytes) regions
   of a dirty page; the server patches them onto its copy in place
   ([Server.apply_regions]). The sequence number is assigned once, so a
   retried or duplicated delivery is recognized and not re-applied.
   [check] (QSan) is the client's disk-format image of the whole page;
   the patched server page must equal it. *)
let ship_regions t ~page_id ?check regions =
  let txn = txn_id t in
  let seq = t.ship_seq in
  t.ship_seq <- seq + 1;
  Qs_trace.with_span (Server.clock t.server) ~cat:"esm" "ship.diff" (fun () ->
      rpc t ~op:"ship_regions" ~page:page_id (fun () ->
          net_request t ~op:"ship_regions" ~page:page_id (fun () ->
              Server.apply_regions t.server ~txn ~seq ?check page_id regions)))

(* Ship a dirty frame back to the server mid-transaction (steal). *)
let write_back t ~at_commit frame =
  match Buf_pool.page_of_frame t.pool frame with
  | None -> ()
  | Some page_id ->
    if Buf_pool.is_dirty t.pool frame then begin
      ship_page t ~txn:(txn_id t) ~at_commit page_id (Buf_pool.frame_bytes t.pool frame);
      Buf_pool.clear_dirty t.pool frame;
      if not at_commit then Hashtbl.replace t.stolen page_id ()
    end

let evict_frame t frame =
  let page = Buf_pool.page_of_frame t.pool frame in
  (match (t.pre_evict, page) with
   | Some hook, Some page_id -> hook ~frame ~page_id
   | _, _ -> ());
  write_back t ~at_commit:false frame;
  Buf_pool.evict t.pool frame;
  match page with Some page_id -> cb_note_dropped t page_id | None -> ()

(* Server→client recall RPC (callback locking). Runs synchronously on
   the requester's task, inside the server's masked lock RPC, so it
   must answer from the pool's current state without blocking:
   - not cached (or already evicted): [Recall_dropped];
   - dirty or pinned in our active transaction: [Recall_deferred] —
     never a silent invalidation; the copy is dropped when the
     transaction finishes, before the server releases its locks
     ([cb_drop_pending]);
   - clean and unpinned: invalidate now, running the pre-evict hook so
     a mapped store unmaps the frame first. No [note_dropped] round
     trip: the server removes the copy entry on the [Recall_dropped]
     answer itself.
   A recall through a stale registration (we crashed since) answers
   [Recall_dead] without touching the fresh pool. *)
let on_recall t ~gen page_id =
  if gen <> t.cb_gen then Server.Recall_dead
  else
    match Buf_pool.lookup t.pool page_id with
    | None ->
      Hashtbl.remove t.installed_epoch page_id;
      Hashtbl.remove t.pending_recall page_id;
      t.recalls_dropped <- t.recalls_dropped + 1;
      Server.Recall_dropped
    | Some frame ->
      if Buf_pool.is_dirty t.pool frame || Buf_pool.pin_count t.pool frame > 0 then begin
        Hashtbl.replace t.pending_recall page_id ();
        t.recalls_deferred <- t.recalls_deferred + 1;
        Server.Recall_deferred
      end
      else begin
        (match t.pre_evict with Some hook -> hook ~frame ~page_id | None -> ());
        Buf_pool.evict t.pool frame;
        Hashtbl.remove t.installed_epoch page_id;
        Hashtbl.remove t.pending_recall page_id;
        t.recalls_dropped <- t.recalls_dropped + 1;
        Server.Recall_dropped
      end

(* Opt this client into callback locking: register a recall endpoint
   and start caching clean pages across transactions (callers stop
   issuing per-transaction [reset_cache]). [sanitize] arms the QSan
   retained-page crosscheck on every retained hit. *)
let enable_callbacks ?(sanitize = false) t =
  if in_txn t then invalid_arg "Client.enable_callbacks: transaction active";
  t.cb_sanitize <- sanitize;
  match t.cb_id with
  | Some _ -> ()
  | None ->
    let gen = t.cb_gen in
    t.cb_id <- Some (Server.register_client t.server (fun page_id -> on_recall t ~gen page_id))

(* Drop every deferred-recall page. Called after the transaction's
   dirty pages are shipped (so the frames are clean) and *before* the
   server's commit/abort releases our locks: a recalling writer parked
   in [Lock_mgr] must find the copy gone by the time its exclusive
   lock is granted. *)
let cb_drop_pending t =
  if Hashtbl.length t.pending_recall > 0 then begin
    let pages =
      List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) t.pending_recall [])
    in
    List.iter
      (fun page_id ->
        match Buf_pool.lookup t.pool page_id with
        | Some frame when Buf_pool.pin_count t.pool frame = 0 -> evict_frame t frame
        | Some _ ->
          (* still pinned at transaction end: caller bug, same class as
             [Client.abort: dirty page still pinned] *)
          invalid_arg "Client: recalled page still pinned at transaction end"
        | None -> cb_note_dropped t page_id)
      pages
  end

(* Transaction epilogue for the callback protocol: deferred recalls
   are honored and the cache epoch advances so surviving clean pages
   count as retained on their next hit. *)
let cb_end_txn t = if t.cb_id <> None then t.cache_epoch <- t.cache_epoch + 1

(* Steal-averse victim selection for logically-logged pages: a B-tree
   node's mutations are covered by logical WAL records only, so
   stealing an uncommitted node (say, half of an in-flight split whose
   sibling never ships) puts bytes on the volume that no before-image
   can undo — a crash in that window leans entirely on logical replay
   over a structurally torn tree. Dirty index nodes are therefore
   passed over while any other victim exists; everything physically
   logged remains stealable under the ordinary WAL rule. When a
   transaction dirties more index nodes than the pool holds, stealing
   one is the only way forward and the historical behavior resumes
   (abort stays exact via [t.stolen]). *)
let steal_averse t frame =
  Buf_pool.is_dirty t.pool frame
  && Page.kind (Page.attach (Buf_pool.frame_bytes t.pool frame)) = Page.Btree_node

let take_frame t =
  match Buf_pool.free_frame t.pool with
  | Some f -> f
  | None ->
    let f =
      match t.policy with
      | External pick -> pick t
      | Traditional ->
        (* Skipped candidates are pinned so the clock hand makes
           progress past them, then unpinned once a victim is found.
           When the sweep exhausts the pool with parked frames in hand,
           every evictable frame is a dirty index node: unpark them and
           steal whichever the clock lands on, as the pre-aversion code
           always did. Only a pool of genuinely pinned frames lets
           Buffer_full propagate. *)
        let parked = ref [] in
        let unpark () =
          List.iter (Buf_pool.unpin t.pool) !parked;
          parked := []
        in
        Fun.protect ~finally:unpark (fun () ->
            let rec pick () =
              match Buf_pool.clock_victim t.pool with
              | f ->
                if steal_averse t f then begin
                  Buf_pool.pin t.pool f;
                  parked := f :: !parked;
                  pick ()
                end
                else f
              | exception Buf_pool.Buffer_full when !parked <> [] ->
                unpark ();
                Buf_pool.clock_victim t.pool
            in
            pick ())
    in
    if Buf_pool.pin_count t.pool f > 0 then invalid_arg "Client: victim policy returned pinned frame";
    evict_frame t f;
    f

(* Under callback locking the read reply, the frame install and the
   copy-table registration must form one atomic step: a preemption
   between them would let a foreign writer win its exclusive lock —
   running its recalls while this copy does not exist yet — and commit,
   leaving the bytes about to be installed stale and forever
   untracked. [Sched.atomically] masks nest, so the server's own
   masked serve section composes with this one. Off-protocol it is a
   plain call, keeping baseline interleavings byte-identical. *)
let cb_atomic t f = if t.cb_id <> None then Sched.atomically f else f ()

let fix_page t ~kind page_id =
  let txn = txn_id t in
  match Buf_pool.lookup t.pool page_id with
  | Some f ->
    cb_on_hit t f page_id;
    Buf_pool.pin t.pool f;
    Buf_pool.set_ref_bit t.pool f true;
    f
  | None ->
    let f = take_frame t in
    cb_atomic t (fun () ->
        rpc t ~op:"read_page" ~page:page_id (fun () ->
            net_request t ~op:"read_page" ~page:page_id (fun () ->
                Server.read_page t.server ~txn ~kind page_id (Buf_pool.frame_bytes t.pool f)));
        Buf_pool.install t.pool ~frame:f ~page_id;
        Buf_pool.pin t.pool f;
        cb_note_cached t page_id);
    f

(* Fault-time prefetch: fix a whole run of pages with one server round
   trip ([Server.read_page_run]). Frames are installed and pinned one
   at a time, so [take_frame] for a later page of the run can never
   reclaim an earlier one (both victim policies skip pinned frames).
   If acquisition or the fetch ultimately fails, every pin taken and
   every frame acquired for the run is released — none holds dirty
   data — leaving the pool exactly as before the call, so the caller's
   mapping table never sees a partially installed run. Retries inside
   [rpc] re-request the whole run; pages the server already read are
   served from its pool, so the retry is idempotent. Returns the
   (page, frame) pairs in request order, all pinned. *)
let fix_page_run t ~kind page_ids =
  let txn = txn_id t in
  let pinned = ref [] in
  let fetched = ref [] in  (* newly acquired frames awaiting data *)
  try
    let fixed =
      List.map
        (fun page_id ->
          match Buf_pool.lookup t.pool page_id with
          | Some f ->
            cb_on_hit t f page_id;
            Buf_pool.pin t.pool f;
            Buf_pool.set_ref_bit t.pool f true;
            pinned := f :: !pinned;
            (page_id, f)
          | None ->
            let f = take_frame t in
            Buf_pool.install t.pool ~frame:f ~page_id;
            Buf_pool.pin t.pool f;
            pinned := f :: !pinned;
            fetched := (page_id, f) :: !fetched;
            (page_id, f))
        page_ids
    in
    (match !fetched with
     | [] -> ()
     | to_fetch ->
       let run = List.rev_map (fun (p, f) -> (p, Buf_pool.frame_bytes t.pool f)) to_fetch in
       let first = match page_ids with p :: _ -> p | [] -> -1 in
       (* Reply bytes and copy-table registration are one atomic step;
          see [cb_atomic] at [fix_page]. *)
       cb_atomic t (fun () ->
           rpc t ~op:"read_run" ~page:first (fun () ->
               net_request t ~op:"read_run" ~page:first (fun () ->
                   Server.read_page_run t.server ~txn ~kind run));
           List.iter (fun (p, _) -> cb_note_cached t p) to_fetch));
    fixed
  with e ->
    List.iter (fun f -> Buf_pool.unpin t.pool f) !pinned;
    List.iter (fun (_, f) -> Buf_pool.evict t.pool f) !fetched;
    raise e

let unfix_page t ~frame = Buf_pool.unpin t.pool frame

let new_page t ~kind =
  let txn = txn_id t in
  let page_id = Server.alloc_page t.server in
  let f = take_frame t in
  let b = Buf_pool.frame_bytes t.pool f in
  ignore (Page.init b ~kind ~page_id);
  Buf_pool.install t.pool ~frame:f ~page_id;
  Buf_pool.pin t.pool f;
  Buf_pool.mark_dirty t.pool f;
  cb_note_cached t page_id;
  (* Log the header initialization so redo can rebuild the page
     structure from a zeroed disk image. *)
  let lsn =
    Server.log_update t.server ~txn ~page:page_id ~off:0
      ~old_data:(Bytes.make Page.header_size '\000')
      ~new_data:(Bytes.sub b 0 Page.header_size)
  in
  Page.set_lsn (Page.attach b) lsn;
  (page_id, f)

let evict_page t ~frame =
  if Buf_pool.pin_count t.pool frame > 0 then invalid_arg "Client.evict_page: pinned";
  evict_frame t frame

(* Lock-grant freshness check. A page fixed {e before} a blocking lock
   request can go stale while the requester is parked: a concurrent
   writer commits new bytes to the server, after which this client
   would update (and at commit ship whole) its old copy — silently
   reverting the other transaction's committed update. The server
   piggybacks the page's current image on the grant reply (no extra
   round trip is modeled, so the comparison is uncharged); a stale
   copy is refetched at the normal page-read cost before the caller
   touches it. Only a {e fresh} acquisition can be stale — a lock
   already held blocked every conflicting writer (strict 2PL) — and
   only under the multi-client scheduler can anyone have interleaved,
   so single-client runs skip even the peek. Compared modulo the
   page-LSN header bytes: an abort's compensation restamp changes the
   LSN without changing committed content. *)
let refresh_after_grant t page_id =
  match Buf_pool.lookup t.pool page_id with
  | None -> ()
  | Some frame when Buf_pool.is_dirty t.pool frame -> ()
  | Some frame ->
    let cached = Buf_pool.frame_bytes t.pool frame in
    let auth = Bytes.create Page.page_size in
    Server.peek_page t.server page_id auth;
    let differs = ref false in
    for i = 0 to Page.page_size - 1 do
      if (i < 8 || i > 15) && Bytes.get cached i <> Bytes.get auth i then
        differs := true
    done;
    if !differs then begin
      if Qs_trace.enabled (clock t) then
        Qs_trace.instant (clock t) ~cat:"esm"
          ~args:[ Qs_trace.A_int ("page", page_id) ]
          "lock.refresh";
      rpc t ~op:"read_page" ~page:page_id (fun () ->
          net_request t ~op:"read_page" ~page:page_id (fun () ->
              Server.read_page t.server ~txn:(txn_id t) ~kind:Server.Data page_id cached))
    end

let lock_page t page_id mode =
  let fresh =
    Server.lock_held t.server ~txn:(txn_id t) (Lock_mgr.Page_lock page_id) = None
  in
  Server.lock ?client:t.cb_id t.server ~txn:(txn_id t) (Lock_mgr.Page_lock page_id) mode;
  if fresh && Sched.active () then refresh_after_grant t page_id
let lock_file t file_id mode =
  Server.lock ?client:t.cb_id t.server ~txn:(txn_id t) (Lock_mgr.File_lock file_id) mode

let log_update t ~page_id ~frame ~off ~old_data ~new_data =
  let lsn = Server.log_update t.server ~txn:(txn_id t) ~page:page_id ~off ~old_data ~new_data in
  Page.set_lsn (Page.attach (Buf_pool.frame_bytes t.pool frame)) lsn

let commit ?(before_flush = fun () -> ()) t =
  let txn = txn_id t in
  before_flush ();
  List.iter
    (fun (page_id, frame) ->
      ship_page t ~txn ~at_commit:true page_id (Buf_pool.frame_bytes t.pool frame);
      Buf_pool.clear_dirty t.pool frame)
    (Buf_pool.dirty_pages t.pool);
  Hashtbl.reset t.stolen;
  (* Deferred recalls drop here — the frames are clean now, and the
     server has not yet released this transaction's locks, so a parked
     writer cannot see the copy after its exclusive grant. *)
  cb_drop_pending t;
  Server.commit t.server ~txn;
  t.txn <- None;
  cb_end_txn t

let abort t =
  let txn = txn_id t in
  (* Dirty frames hold uncommitted bytes; drop them so later reads
     refetch the undone versions from the server. *)
  List.iter
    (fun (page_id, frame) ->
      (match (t.pre_evict, Some page_id) with
       | Some hook, Some pid -> hook ~frame ~page_id:pid
       | _, _ -> ());
      Buf_pool.clear_dirty t.pool frame;
      if Buf_pool.pin_count t.pool frame = 0 then begin
        Buf_pool.evict t.pool frame;
        cb_note_dropped t page_id
      end
      else invalid_arg "Client.abort: dirty page still pinned")
    (Buf_pool.dirty_pages t.pool);
  (* Pages stolen earlier in this transaction and then re-read are
     cached *clean* with uncommitted bytes; drop those copies too. *)
  Hashtbl.iter
    (fun page_id () ->
      match Buf_pool.lookup t.pool page_id with
      | Some frame when Buf_pool.pin_count t.pool frame = 0 ->
        (match t.pre_evict with Some hook -> hook ~frame ~page_id | None -> ());
        Buf_pool.evict t.pool frame;
        cb_note_dropped t page_id
      | Some _ -> invalid_arg "Client.abort: stolen page still pinned"
      | None -> ())
    t.stolen;
  Hashtbl.reset t.stolen;
  cb_drop_pending t;
  Server.abort t.server ~txn;
  t.txn <- None;
  cb_end_txn t

let with_txn t f =
  begin_txn t;
  match f () with
  | v ->
    commit t;
    v
  | exception e ->
    if in_txn t then abort t;
    raise e

(* Deadlock victims re-run: the wound (or lock-wait timeout) surfaces
   as [Lock_mgr.Deadlock] from whichever lock request lost, the
   transaction aborts — releasing everything so the cycle's survivors
   proceed — backs off through the same exponential Retry charge the
   network retry path uses, and the whole body is re-executed under a
   fresh (younger) transaction id. Any other exception aborts and
   propagates unchanged, exactly like {!with_txn}. *)
let with_txn_retrying ?(max_attempts = 8) ?(on_retry = fun ~attempt:_ -> ()) t f =
  (* The first attempt's txn id is the work's birth stamp: every retry
     re-registers it with the lock manager so victim selection sees the
     transaction's true age (wound-wait is starvation-free only with
     inherited timestamps). *)
  let birth = ref None in
  let rec go attempt =
    begin_txn t;
    (match !birth with
     | None -> birth := Some (txn_id t)
     | Some age -> Server.set_txn_age t.server ~txn:(txn_id t) ~age);
    (* The commit is inside the handler: a wound can land while the
       commit flush is still acquiring or holding locks, and that abort
       is as retryable as one from the body. *)
    match
      let v = f () in
      commit t;
      v
    with
    | v -> v
    | exception e -> (
      if in_txn t then abort t;
      match e with
      | Lock_mgr.Deadlock { cycle; _ } when attempt + 1 < max_attempts ->
        charge_retry t
          ((cost_model t).Simclock.Cost_model.retry_backoff_us *. float_of_int (1 lsl attempt));
        if Qs_trace.enabled (Server.clock t.server) then
          Qs_trace.instant (Server.clock t.server) ~cat:"esm"
            ~args:
              [ Qs_trace.A_int ("attempt", attempt + 1)
              ; Qs_trace.A_int ("cycle_len", List.length cycle) ]
            "retry.deadlock";
        on_retry ~attempt:(attempt + 1);
        go (attempt + 1)
      | e -> raise e)
  in
  go 0

(* --- object layer --- *)

let with_fixed t ~kind page_id f =
  let frame = fix_page t ~kind page_id in
  Fun.protect ~finally:(fun () -> unfix_page t ~frame) (fun () -> f frame)

(* Log everything [Page.insert] changed: the object bytes, the header
   counters (nslots / free_off / next_unique) and the slot-directory
   entry, so that redo reconstructs the page structure exactly. *)
let log_insert t ~page_id ~frame ~slot ~hdr_old ~dir_old =
  let b = page_bytes t ~frame in
  let p = Page.attach b in
  let off, len = Page.slot_span p slot in
  log_update t ~page_id ~frame ~off ~old_data:(Bytes.make len '\000')
    ~new_data:(Bytes.sub b off len);
  log_update t ~page_id ~frame ~off:16 ~old_data:hdr_old ~new_data:(Bytes.sub b 16 8);
  let dir_off = Page.page_size - (Page.slot_entry_size * (slot + 1)) in
  log_update t ~page_id ~frame ~off:dir_off ~old_data:dir_old
    ~new_data:(Bytes.sub b dir_off Page.slot_entry_size);
  mark_dirty t ~frame

let dir_snapshot b slot nslots_before =
  if slot < nslots_before then
    Bytes.sub b (Page.page_size - (Page.slot_entry_size * (slot + 1))) Page.slot_entry_size
  else Bytes.make Page.slot_entry_size '\000'

let create_object t ~page_id data =
  with_fixed t ~kind:Server.Data page_id (fun frame ->
      let p = Page.attach (page_bytes t ~frame) in
      if Bytes.length data > Page.free_space p then None
      else begin
        (* QS012: strict 2PL — the exclusive lock is held to commit by
           design; the insert + log charges below happen under it. *)
        (lock_page t page_id Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
        let hdr_old = Bytes.sub (Page.raw p) 16 8 in
        let nslots_before = Page.nslots p in
        let slot = Page.insert p data in
        let dir_old = dir_snapshot (Page.raw p) slot nslots_before in
        (* dir_old captured after insert would be wrong for reused
           slots; reconstruct the freed-entry image instead. *)
        let dir_old =
          if slot < nslots_before then begin
            let d = dir_old in
            Qs_util.Codec.set_u16 d 0 0;
            Qs_util.Codec.set_u16 d 2 0;
            d
          end
          else dir_old
        in
        log_insert t ~page_id ~frame ~slot ~hdr_old ~dir_old;
        Some (Oid.make ~page:page_id ~slot ~unique:(Page.slot_unique p slot) ())
      end)

let create_object_new_page t data =
  let page_id, frame = new_page t ~kind:Page.Small_obj in
  Fun.protect
    ~finally:(fun () -> unfix_page t ~frame)
    (fun () ->
      (* QS012: strict 2PL — held to commit; see create_object. *)
      (lock_page t page_id Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
      let p = Page.attach (page_bytes t ~frame) in
      let hdr_old = Bytes.sub (Page.raw p) 16 8 in
      let nslots_before = Page.nslots p in
      let slot = Page.insert p data in
      let dir_old = dir_snapshot (Page.raw p) slot nslots_before in
      log_insert t ~page_id ~frame ~slot ~hdr_old ~dir_old;
      Oid.make ~page:page_id ~slot ~unique:(Page.slot_unique p slot) ())

let checked_span t oid frame =
  let p = Page.attach (page_bytes t ~frame) in
  match Page.slot_span p oid.Oid.slot with
  | exception Not_found -> raise (Dangling_reference oid)
  | span -> if Page.slot_unique p oid.Oid.slot <> oid.Oid.unique then raise (Dangling_reference oid) else span

let read_object t oid =
  with_fixed t ~kind:Server.Data oid.Oid.page (fun frame ->
      lock_page t oid.Oid.page Lock_mgr.Shared;
      let off, len = checked_span t oid frame in
      Bytes.sub (page_bytes t ~frame) off len)

let update_object t oid ~off data =
  with_fixed t ~kind:Server.Data oid.Oid.page (fun frame ->
      (* QS012: strict 2PL — held to commit; see create_object. *)
      (lock_page t oid.Oid.page Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
      let base, len = checked_span t oid frame in
      let n = Bytes.length data in
      if off < 0 || off + n > len then invalid_arg "Client.update_object: out of bounds";
      let b = page_bytes t ~frame in
      let old_data = Bytes.sub b (base + off) n in
      Bytes.blit data 0 b (base + off) n;
      log_update t ~page_id:oid.Oid.page ~frame ~off:(base + off) ~old_data ~new_data:data;
      mark_dirty t ~frame)

let delete_object t oid =
  with_fixed t ~kind:Server.Data oid.Oid.page (fun frame ->
      (* QS012: strict 2PL — held to commit; see create_object. *)
      (lock_page t oid.Oid.page Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
      let base, len = checked_span t oid frame in
      let p = Page.attach (page_bytes t ~frame) in
      let old_data = Bytes.sub (Page.raw p) base len in
      Page.delete_slot p oid.Oid.slot;
      (* Log the slot-directory change coarsely: before-image restores
         the object bytes; the redo image zeroes them. The slot entry
         itself lives in the directory, logged as a second record. *)
      log_update t ~page_id:oid.Oid.page ~frame ~off:base ~old_data ~new_data:(Bytes.make len '\000');
      let dir_off = Page.page_size - (Page.slot_entry_size * (oid.Oid.slot + 1)) in
      let new_dir = Bytes.sub (Page.raw p) dir_off Page.slot_entry_size in
      let old_dir = Bytes.copy new_dir in
      Qs_util.Codec.set_u16 old_dir 0 base;
      Qs_util.Codec.set_u16 old_dir 2 len;
      Qs_util.Codec.set_u32 old_dir 4 oid.Oid.unique;
      log_update t ~page_id:oid.Oid.page ~frame ~off:dir_off ~old_data:old_dir ~new_data:new_dir;
      mark_dirty t ~frame)

let reset_cache t =
  if in_txn t then invalid_arg "Client.reset_cache: transaction active";
  (* A transaction that touched no pages left nothing behind: the pool
     is empty and no copy-table entry or recall can name this client,
     so the whole epilogue — including the server-side copy-table
     sweep — is a no-op. Skipping it keeps page-free transactions from
     paying (and tracing) a spurious drop round. *)
  let empty =
    Buf_pool.occupied t.pool = 0
    && Hashtbl.length t.pending_recall = 0
    && Hashtbl.length t.installed_epoch = 0
  in
  if not empty then begin
    (match t.cb_id with
     | Some id ->
       Server.drop_all_copies t.server ~client:id;
       Hashtbl.reset t.pending_recall;
       Hashtbl.reset t.installed_epoch
     | None -> ());
    Buf_pool.clear t.pool
  end

(* --- snapshot-isolation read-only transactions --------------------

   The reader's whole page path is lock-free: [Server.read_page_at]
   materializes the page as of the snapshot LSN from the server's
   version chains, and nothing here ever calls [lock_page] — a
   snapshot reader cannot wait, cannot deadlock, and cannot trigger a
   callback recall. Pages land in a private per-snapshot pool kept
   apart from the main (callback-tracked) cache. *)

exception No_snapshot

let in_snapshot t = t.snap <> None
let snapshot_retries t = t.snapshot_retries
let snap_state t = match t.snap with Some s -> s | None -> raise No_snapshot
let snapshot_lsn t = (snap_state t).snap_lsn

let take_snap_frame pool =
  match Buf_pool.free_frame pool with
  | Some f -> f
  | None ->
    (* Snapshot frames are never dirty and never copy-table tracked:
       eviction is a plain drop. *)
    let f = Buf_pool.clock_victim pool in
    Buf_pool.evict pool f;
    f

let snapshot_fix_page t page_id =
  let s = snap_state t in
  match Buf_pool.lookup s.snap_pool page_id with
  | Some f ->
    Buf_pool.pin s.snap_pool f;
    Buf_pool.set_ref_bit s.snap_pool f true;
    f
  | None ->
    let f = take_snap_frame s.snap_pool in
    rpc t ~op:"read_page_at" ~page:page_id (fun () ->
        net_request t ~op:"read_page_at" ~page:page_id (fun () ->
            Server.read_page_at t.server ~snap:s.snap_id ~verify:s.snap_sanitize page_id
              (Buf_pool.frame_bytes s.snap_pool f)));
    Buf_pool.install s.snap_pool ~frame:f ~page_id;
    Buf_pool.pin s.snap_pool f;
    f

let snapshot_page_bytes t ~frame = Buf_pool.frame_bytes (snap_state t).snap_pool frame
let snapshot_unfix_page t ~frame = Buf_pool.unpin (snap_state t).snap_pool frame

let snapshot_read_object t oid =
  let s = snap_state t in
  let frame = snapshot_fix_page t oid.Oid.page in
  Fun.protect
    ~finally:(fun () -> Buf_pool.unpin s.snap_pool frame)
    (fun () ->
      let b = Buf_pool.frame_bytes s.snap_pool frame in
      let p = Page.attach b in
      match Page.slot_span p oid.Oid.slot with
      | exception Not_found -> raise (Dangling_reference oid)
      | off, len ->
        if Page.slot_unique p oid.Oid.slot <> oid.Oid.unique then raise (Dangling_reference oid)
        else Bytes.sub b off len)

let end_snapshot_txn t =
  match t.snap with
  | None -> ()
  | Some s ->
    t.snap <- None;
    Server.end_snapshot t.server ~snap:s.snap_id

(* Run a read-only body at one snapshot LSN. The body must be a pure
   read (re-runnable): when reclamation has trimmed a chain past our
   LSN the server answers [Version_store.Snapshot_too_old], and the
   whole body re-runs at a fresh snapshot after a backoff charged to
   Retry — the snapshot analogue of {!with_txn_retrying}'s
   abort-backoff-rerun, except no lock was ever held and no server
   state needs undoing. *)
let with_snapshot_txn ?(frames = 256) ?(sanitize = false) ?(max_attempts = 8) t f =
  if in_txn t then invalid_arg "Client.with_snapshot_txn: update transaction active";
  if in_snapshot t then invalid_arg "Client.with_snapshot_txn: snapshot already active";
  let rec go attempt =
    let snap_id, snap_lsn = Server.begin_snapshot t.server in
    t.snap <-
      Some { snap_id; snap_lsn; snap_pool = Buf_pool.create ~frames; snap_sanitize = sanitize };
    match f () with
    | v ->
      end_snapshot_txn t;
      v
    | exception e -> (
      end_snapshot_txn t;
      match e with
      | Version_store.Snapshot_too_old _ when attempt + 1 < max_attempts ->
        t.snapshot_retries <- t.snapshot_retries + 1;
        charge_retry t
          ((cost_model t).Simclock.Cost_model.retry_backoff_us *. float_of_int (1 lsl attempt));
        if Qs_trace.enabled (Server.clock t.server) then
          Qs_trace.instant (Server.clock t.server) ~cat:"esm"
            ~args:[ Qs_trace.A_int ("attempt", attempt + 1) ]
            "retry.snapshot";
        go (attempt + 1)
      | e -> raise e)
  in
  go 0

let crash t =
  t.pool <- Buf_pool.create ~frames:t.frames;
  t.txn <- None;
  t.snap <- None;
  (* The registration dies with the cache: a recall through the old
     endpoint answers [Recall_dead] (generation mismatch) and the
     server forgets this client's stale copy-table entries. Surviving
     the crash, the client may {!enable_callbacks} again and gets a
     fresh id. *)
  t.cb_gen <- t.cb_gen + 1;
  t.cb_id <- None;
  Hashtbl.reset t.pending_recall;
  Hashtbl.reset t.installed_epoch;
  Hashtbl.reset t.stolen

let attempt f = match f () with v -> Ok v | exception Degraded d -> Error d
