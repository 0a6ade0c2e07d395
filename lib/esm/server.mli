(** The ESM page server.

    Clients request whole 8 KB pages over the (simulated) network; the
    server answers from its own buffer pool or reads the raw volume,
    exactly the page-shipping architecture of §4.4. The server also
    owns the write-ahead log, the lock manager and the transaction
    table, and charges every modeled cost to the shared simulated
    clock. *)

type t

(** Read-request categories let QuickStore separate Table 6's "data
    I/O" from "map I/O"; index reads are charged to the same data
    channel but counted separately. *)
type io_kind = Data | Map | Index

val create :
  ?frames:int (** server pool frames; paper default 4608 (36 MB) *) ->
  ?fault:Qs_fault.t (** fault injector (a disarmed one is created otherwise) *) ->
  clock:Simclock.Clock.t ->
  cm:Simclock.Cost_model.t ->
  unit ->
  t

(** Attach a server to an existing volume (e.g. one loaded from a
    saved image). The injector is shared with the disk. *)
val create_with_disk :
  ?frames:int ->
  ?fault:Qs_fault.t ->
  disk:Disk.t ->
  clock:Simclock.Clock.t ->
  cm:Simclock.Cost_model.t ->
  unit ->
  t

(** The server's fault injector (disarmed and free unless a harness
    arms it). Crash points instrumented here: [commit.pre_log],
    [commit.pre_flush], [commit.mid_flush], [commit.post_flush],
    [commit.ship_page], [commit.ship_region], [commit.region_torn],
    [evict.steal_write], [wal.force_partial], [prepare.pre_log],
    [prepare.post_log], [prepare.mid_flush], [abort.mid_undo],
    [checkpoint.mid_flush]; the shared disk adds [disk.torn_write]
    plus transient I/O errors. *)
val fault_injector : t -> Qs_fault.t

val disk : t -> Disk.t
val clock : t -> Simclock.Clock.t
val cost_model : t -> Simclock.Cost_model.t

(** {2 Transactions} *)

(** [begin_txn ?client t] opens a transaction. [client], passed by
    callback-registered clients, records the owner so a group-commit
    ride by a different client than the force owner counts as a
    cross-client ride. *)
val begin_txn : ?client:int -> t -> int

(** Number of transactions currently active (multi-client harnesses
    gate checkpoints on this reaching zero). *)
val active_txns : t -> int

(** [set_txn_age t ~txn ~age] passes an inherited deadlock-victim
    birth stamp to the lock manager ({!Lock_mgr.set_age}): a client
    retrying after a {!Lock_mgr.Deadlock} registers the txn id of its
    first attempt so the retry ages instead of staying forever the
    youngest (and forever the victim). *)
val set_txn_age : t -> txn:int -> age:int -> unit

(** [commit t ~txn] logs the commit, forces the log (charged to
    Commit_flush), writes the transaction's dirty server-side pages to
    disk, and releases locks. The client must have shipped its dirty
    pages first via {!write_page}. *)
val commit : t -> txn:int -> unit

(** [abort t ~txn] undoes the transaction's logged updates against the
    server/disk state (before-images, reverse order), logs the abort
    and releases locks. *)
val abort : t -> txn:int -> unit

(** Two-phase commit, participant side: force the log (with a durable
    Prepare record) and flush the transaction's pages. The transaction
    stays active — locks held — until {!commit} or {!abort} delivers
    the coordinator's decision. After a crash the transaction is
    {e in-doubt}: {!Recovery.restart} neither undoes nor commits it
    (see {!Recovery.resolve_in_doubt}). *)
val prepare : t -> txn:int -> unit

(** {2 Page service} *)

(** [read_page t ~txn ~kind page_id dst] ships the page to the client.
    Charges net ship plus a disk read on a server-pool miss, and counts
    one client I/O request (the unit reported in Tables 3/4/8/9). *)
val read_page : t -> txn:int -> kind:io_kind -> int -> bytes -> unit

(** [read_page_run t ~txn ~kind pages] ships a run of pages in one
    round trip (fault-time prefetch): the run's server-pool misses are
    read as one disk batch — one [disk_seek_us] plus a
    [disk_transfer_page_us] per missed page — and the whole run is
    charged a single [net_ship_us]. Each page still counts as one
    client I/O request. A transient disk fault propagates with the
    pages read so far installed in the server pool, so a client retry
    is idempotent. *)
val read_page_run : t -> txn:int -> kind:io_kind -> (int * bytes) list -> unit

(** [write_page t ~txn ~at_commit page_id src] receives a dirty page
    from the client. With [at_commit:true] the charge is the per-page
    commit-flush cost; otherwise it is a mid-transaction write-back
    (network ship now, disk write when the server pool evicts it). *)
val write_page : t -> txn:int -> at_commit:bool -> int -> bytes -> unit

(** [apply_regions t ~txn ~seq ?check page_id regions] is the
    diff-shipping commit's server half ([Qs_config.diff_ship]): patch
    the [(offset, bytes)] regions — the same regions the client's
    commit-time diff logged to the WAL — onto the server's copy of the
    page in place, reading the base page from disk first (charged to
    Commit_flush) when it is not server-resident. Charges
    [ship_region_us] per region plus [ship_byte_us] per payload byte.

    [seq] is the client-assigned ship sequence number, fixed before
    any retry: a ship already applied for this transaction (a
    duplicated or retried delivery) charges its wire cost again but
    patches nothing. [check], passed under QSan, is the client's own
    disk-format image of the page; after the patch the server page
    must equal it byte-for-byte or
    [Qs_util.Sanitizer.Sanitizer_violation] is raised.

    Crash points: [commit.ship_region] (before anything is applied)
    and [commit.region_torn] (a seeded prefix of the regions lands in
    the volatile pool, the sequence number is not recorded). *)
val apply_regions :
  t -> txn:int -> seq:int -> ?check:bytes -> int -> (int * bytes) list -> unit

val alloc_page : t -> int
val free_page : t -> int -> unit

(** {2 Locks and logging} *)

(** Acquire (or upgrade) a page/file lock. Single-client (no scheduler
    active): no-wait, conflicts raise [Lock_mgr.Conflict]. Under the
    multi-client scheduler the request blocks via
    [Lock_mgr.acquire_blocking]: the wait is charged to
    [Category.Lock_wait], a detected waits-for cycle wounds the
    youngest transaction on it, and a wait past
    [lock_wait_timeout_us] is a presumed deadlock — both surface as
    [Lock_mgr.Deadlock], which {!Client.with_txn_retrying} turns into
    abort-backoff-rerun.

    An exclusive page request first recalls the page from every other
    registered copy-holder (callback locking, see
    {!register_client}); [client] identifies the requester so its own
    copy is not recalled. *)
val lock : ?client:int -> t -> txn:int -> Lock_mgr.resource -> Lock_mgr.mode -> unit

val lock_held : t -> txn:int -> Lock_mgr.resource -> Lock_mgr.mode option

(** {2 Callback locking}

    Inter-transaction client caching with server-side invalidation
    (the classic client-server OODB callback-locking protocol): the
    server keeps a {e copy table} of which registered clients cache
    which pages, and recalls a page from every other holder before
    granting an exclusive page lock. A recall runs synchronously
    inside the requester's RPC, in sorted holder order, each charged
    [callback_us] to [Category.Callback] — delivery order is a
    deterministic function of the seed and lands in the interleaving
    digest. Unregistered clients cost nothing: the copy table stays
    empty and every path below is a no-op. *)

(** A holder's answer to a recall of one page. *)
type recall_verdict =
  | Recall_dropped  (** clean copy invalidated (or not cached at all) *)
  | Recall_deferred
      (** the page is dirty or pinned in the holder's active
          transaction; the holder's own conflicting lock makes the
          requester block in [Lock_mgr], and the copy is dropped when
          that transaction finishes — never a silent invalidation *)
  | Recall_dead  (** stale endpoint: the holder crashed or re-registered *)

(** [register_client t recall] enrolls a caching client and returns
    its client id. [recall page_id] is the server→client recall RPC
    endpoint. *)
val register_client : t -> (int -> recall_verdict) -> int

(** [note_cached t ~client page_id] records that a registered client
    holds a copy (piggybacked on the read reply: no charge) and
    returns [true]. Returns [false] — copy {e not} tracked — for
    unknown clients, or when a foreign transaction currently holds the
    page exclusively: that writer's recalls ran before this copy
    existed, so tracking it now would let it go stale unnoticed at the
    writer's commit. A [false] means the client must not retain the
    page past its current transaction. *)
val note_cached : t -> client:int -> int -> bool

(** [note_dropped t ~client page_id] removes one copy-table entry
    (client-initiated drop: eviction, abort, discard). *)
val note_dropped : t -> client:int -> int -> unit

(** Remove every copy-table entry for [client] (cache reset). *)
val drop_all_copies : t -> client:int -> unit

(** Registered clients currently listed as caching the page, sorted
    (test/debug observability of the copy-table invariant). *)
val copies_of : t -> int -> int list

(** [peek_page t page_id dst] copies the server's authoritative bytes
    for the page — buffer pool if resident, else the volume via
    [Disk.peek] — with no charge, no counter bump and no fault draw.
    QSan uses it to verify retained client pages byte-exact. *)
val peek_page : t -> int -> bytes -> unit

(** {2 Snapshot-isolation reads (MVCC version chains)}

    With versioning on, every commit retains the precise byte runs it
    changed — the same regions the diff-ship path computes — as an
    {e undo} delta on a bounded per-page chain ({!Version_store}).
    A read-only transaction takes a snapshot LSN at begin and reads
    pages materialized as of that LSN with {b no page locks anywhere on
    the path}: snapshot readers never enter the lock manager's
    waits-for graph, are never wounded, and never force a callback
    recall. Off by default; every hook is then a no-op and the server
    is bit-identical to the locking-only build. *)

(** [set_versioning ?max_deltas t on] enables or disables version
    retention. Enabling requires no active transactions (the chains
    anchor at the current log position) and must be redone after a
    {!crash}: chains are volatile and recovery moves the log position.
    [max_deltas] bounds each page's chain (default 16); pushes past the
    bound drop the oldest delta, which can make old snapshots
    unservable ({!Version_store.Snapshot_too_old}). *)
val set_versioning : ?max_deltas:int -> t -> bool -> unit

val versioning : t -> bool

(** [begin_snapshot t] registers a read-only snapshot and returns
    [(snapshot id, snapshot LSN)] — the LSN of the last appended log
    record, so every commit at or below it is visible and nothing
    after it is. *)
val begin_snapshot : t -> int * int64

(** Deregister a snapshot. Moves the reclamation watermark and trims
    every chain delta no remaining active snapshot can need (crash
    point [snapshot.trim]). *)
val end_snapshot : t -> snap:int -> unit

(** [read_page_at t ~snap ?verify page_id dst] materializes the page
    as of the snapshot's LSN: newest committed image (an in-flight
    writer's captured pre-image when one exists), rolled back by undo
    deltas. Charged to [Category.Snapshot_read]; acquires no locks.
    Raises {!Version_store.Snapshot_too_old} when the chain has been
    trimmed or bounded past the snapshot — the client retries at a
    fresh LSN. [verify] (QSan) replays the WAL from the chain's base
    image and requires the materialized page byte-identical modulo the
    page-LSN header stamp. Crash point: [snapshot.materialize]. *)
val read_page_at : t -> snap:int -> ?verify:bool -> int -> bytes -> unit

(** Trim all chains against the current watermark (also done by
    {!end_snapshot}). *)
val trim_versions : t -> unit

val version_stats : t -> Version_store.stats option
val version_chain : t -> int -> Version_store.chain option

(** Total bytes retained across all version chains. *)
val version_bytes_retained : t -> int

(** Append an update record on behalf of a client; returns its LSN.
    Charges log-record CPU. *)
val log_update : t -> txn:int -> page:int -> off:int -> old_data:bytes -> new_data:bytes -> int64

(** {2 Failure simulation} *)

(** Empty the server buffer pool (cold-run protocol). Flushes dirty
    frames to disk first, without charging (experiment setup, not
    measured time). *)
val reset_cache : t -> unit

(** Checkpoint: flush all dirty server pages to disk and truncate the
    log (used between benchmark phases to bound memory; requires no
    active transactions). *)
val checkpoint : t -> unit

(** Simulate a server crash: volatile state (buffer pool, transaction
    table, lock table) is lost; only the disk and the forced log
    survive. Also clears the injector's halt, so the restarted server
    serves again. Restart recovery is in {!Recovery}. *)
val crash : t -> unit

(** Raised by every request once a scheduled {!Qs_fault} crash has
    fired and until {!crash} takes the failure: a dead server does not
    answer, so e.g. a 2PC coordinator cannot keep talking to a crashed
    participant. *)
exception Server_down

(** Raised on requests naming a transaction that is not active: always
    a caller bug, never an injected fault. *)
exception Bad_txn of { op : string; txn : int }

(** Fork the durable state (disk image + forced log) of a crashed
    server into an independent server on a fresh clock: recovery tests
    restart the same crash twice and drive an in-doubt transaction to
    both decisions. *)
val fork_crashed : t -> t

(** Fault injection: raised by {!write_page} once the injected
    countdown reaches zero, cutting a commit flush mid-stream. *)
exception Injected_crash

(** Arm the fault: the [n+1]-th subsequent page write raises
    {!Injected_crash}. Disarmed by {!crash}. *)
val inject_crash_after_writes : t -> int -> unit

val wal : t -> Wal.t

(** WAL group commit ([Qs_config.group_commit]): when on, a log force
    arriving within [group_commit_window_us] of the previous charged
    force that adds no new full log page rides the in-flight disk
    write for free. Durability is unchanged — records are forced
    immediately either way; only the disk charge coalesces. Off by
    default (bit-identical to the paper's per-commit force). *)
val set_group_commit : t -> bool -> unit

(** Commit pipelining ([Qs_config.diff_ship]): when on, the commit's
    log force charges only what the transaction's commit-time ships
    ({!write_page} with [at_commit:true] and {!apply_regions}) did not
    already cover — the records were appended before the ships
    started, so the disk force overlaps the network ships. Durability
    is unchanged. Off by default (the force serializes after the
    ships, as in the paper's measured configuration). *)
val set_commit_pipeline : t -> bool -> unit

(** {2 Counters} *)

type counters = {
  mutable client_reads : int;  (** client I/O (read) requests *)
  mutable client_reads_data : int;
  mutable client_reads_map : int;
  mutable client_reads_index : int;
  mutable client_writes : int;  (** whole pages shipped back by clients *)
  mutable client_region_ships : int;
      (** pages patched in place via {!apply_regions} (duplicate
          deliveries excluded) *)
  mutable region_bytes_shipped : int;  (** payload bytes of those patches *)
  mutable server_pool_hits : int;
  mutable callbacks_sent : int;  (** recalls issued before exclusive page grants *)
  mutable callbacks_deferred : int;  (** recalls answered [Recall_deferred] *)
  mutable gc_rides : int;  (** log forces that rode the in-flight group-commit write *)
  mutable gc_cross_rides : int;
      (** rides whose committer differs from the owner of the force
          they rode (cross-client group commit) *)
  mutable snapshot_reads : int;  (** pages materialized for snapshot transactions *)
  mutable snapshot_deltas_applied : int;  (** undo deltas applied across those reads *)
}

val counters : t -> counters
val reset_counters : t -> unit

(** Append a logical index record ({!Wal.Index_insert} /
    {!Wal.Index_delete}); returns its LSN. *)
val log_index : t -> txn:int -> Wal.record -> int64

(** Install the handler invoked during {!abort} to apply inverse
    logical index operations (wired by {!Btree.install_undo_handler}). *)
val set_index_undo : t -> (Wal.record -> unit) -> unit
