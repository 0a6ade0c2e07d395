(** The ESM client: a page cache over the server plus the object API.

    Both persistence schemes sit directly on this layer, as in the
    paper: QuickStore maps virtual frames onto client buffer frames and
    manipulates page bytes in place; E calls the object operations from
    its interpreter. The victim policy is pluggable because QuickStore
    replaces the traditional clock with its protection-driven sweep
    (§3.5). *)

type t

(** [Traditional] is the reference-bit clock (used by E and the
    default); [External f] delegates victim choice, receiving the
    client and returning a frame whose page may be evicted ([f] must
    not return a pinned frame). *)
type victim_policy = Traditional | External of (t -> int)

val create : ?frames:int (** paper default 1536 (12 MB) *) -> Server.t -> t
val set_victim_policy : t -> victim_policy -> unit
val server : t -> Server.t
val pool : t -> Buf_pool.t
val clock : t -> Simclock.Clock.t
val cost_model : t -> Simclock.Cost_model.t

(** Called just before a frame's page is evicted (QuickStore hooks this
    to invalidate the page's virtual-frame mapping). *)
val set_pre_evict_hook : t -> (frame:int -> page_id:int -> unit) -> unit

(** Transform a dirty page's bytes as they are shipped to the server
    (write-back and commit flush). The Texas/Wilson pointer format
    unswizzles virtual addresses back to page offsets here; the buffer
    copy itself is not modified. *)
val set_pre_ship_hook : t -> (page_id:int -> bytes -> bytes) -> unit

(** {2 Robustness}

    Every client↔server request (page fetch, dirty-page ship) crosses
    the server's {!Qs_fault} injector. Transient failures — injected
    disk errors and lost/duplicated/delayed messages — are retried with
    exponential backoff; dropped requests first wait out the
    per-request timeout. All waiting is charged to the simulated clock
    under [Category.Retry]. When the retry budget ({!max_retries})
    exhausts, the request degrades: a typed {!Degraded} carries the
    operation, the page, the attempt count and the last cause. A
    degraded client holds an open transaction in an unknown ship
    state; the safe continuation is {!crash} (client cache is
    volatile) and server-side abort or restart recovery. *)

type degradation = { op : string; page : int; attempts : int; cause : exn }

exception Degraded of degradation

(** Retry budget per request (attempts, including the first). *)
val max_retries : int

(** [attempt f] runs [f], catching only {!Degraded}. *)
val attempt : (unit -> 'a) -> ('a, degradation) result

(** {2 Transactions} *)

exception No_transaction

val begin_txn : t -> unit
val txn_id : t -> int

(** Ship dirty pages (commit-flush charge), commit at the server,
    release everything. [before_flush] runs while the transaction is
    still active, after which the commit flush starts — QuickStore's
    diffing/log generation and mapping-object maintenance happen
    there. *)
val commit : ?before_flush:(unit -> unit) -> t -> unit

(** Drop dirty frames, undo at the server. *)
val abort : t -> unit

(** Two-phase commit, participant side: ship dirty pages and record
    the durable yes-vote (locks stay held; the transaction stays
    active). [before_flush] as in {!commit}. *)
val prepare : ?before_flush:(unit -> unit) -> t -> unit

(** Deliver the coordinator's commit decision after {!prepare}. *)
val commit_prepared : t -> unit

val in_txn : t -> bool
val with_txn : t -> (unit -> 'a) -> 'a

(** [with_txn_retrying t f] is {!with_txn} that additionally treats a
    [Lock_mgr.Deadlock] abort (wound or lock-wait timeout under the
    multi-client scheduler) as retryable: the transaction aborts —
    releasing its locks so the cycle's survivors proceed — charges the
    standard exponential backoff to [Category.Retry], and re-runs [f]
    under a fresh transaction id, up to [max_attempts] executions.
    [on_retry] is called before each re-execution with the 1-based
    retry number. [f] must therefore be idempotent in the usual
    transactional sense: all its effects go through the transaction.
    Any other exception (and deadlock exhaustion) aborts and
    propagates unchanged. *)
val with_txn_retrying :
  ?max_attempts:int -> ?on_retry:(attempt:int -> unit) -> t -> (unit -> 'a) -> 'a

(** {2 Snapshot-isolation read-only transactions}

    A snapshot transaction reads every page materialized as of one
    snapshot LSN ({!Server.read_page_at}) with {b no page locks
    anywhere on the path}: it never enters the lock manager's
    waits-for graph, is never wounded, and never triggers a callback
    recall. Its pages live in a private per-snapshot pool, kept apart
    from the main (copy-table-tracked) cache. Requires server
    versioning ({!Server.set_versioning}). *)

(** A snapshot operation was attempted with no snapshot active. *)
exception No_snapshot

(** [with_snapshot_txn t f] runs the read-only body [f] at one
    snapshot LSN. [f] must be a pure read (re-runnable): when
    reclamation has trimmed a version chain past the snapshot, the
    server answers [Version_store.Snapshot_too_old] and the body
    re-runs at a {e fresh} snapshot LSN after an exponential backoff
    charged to [Category.Retry], up to [max_attempts] executions —
    the lock-free analogue of {!with_txn_retrying}. [frames] sizes
    the private pool; [sanitize] (QSan) makes the server verify every
    materialized page byte-exact against a WAL replay at the snapshot
    LSN. Must not be called with an update transaction active. *)
val with_snapshot_txn :
  ?frames:int -> ?sanitize:bool -> ?max_attempts:int -> t -> (unit -> 'a) -> 'a

val in_snapshot : t -> bool

(** The active snapshot's LSN. Raises {!No_snapshot} when none. *)
val snapshot_lsn : t -> int64

(** Bodies re-run by [Snapshot_too_old] reclamation so far. *)
val snapshot_retries : t -> int

(** Checked object read as of the snapshot LSN (no lock acquired).
    Raises {!Dangling_reference} on stale OIDs, {!No_snapshot} outside
    a snapshot body. *)
val snapshot_read_object : t -> Oid.t -> bytes

(** Low-level snapshot page access (the mapped store's integration
    point): fix materializes the page into the snapshot pool and pins
    it. *)
val snapshot_fix_page : t -> int -> int

val snapshot_page_bytes : t -> frame:int -> bytes
val snapshot_unfix_page : t -> frame:int -> unit

(** {2 Page access} *)

(** [fix_page t ~kind page_id] ensures residency and pins; returns the
    frame. Misses go to the server (charged). *)
val fix_page : t -> kind:Server.io_kind -> int -> int

(** [fix_page_run t ~kind pages] fixes a run of pages with one server
    round trip ({!Server.read_page_run}): one disk seek for the run's
    misses, one ship for the run — the fault-time prefetch path.
    Already-resident pages are pinned locally. Returns (page, frame)
    pairs in request order, all pinned. On failure (including
    {!Degraded}) every pin and frame acquired for the run has been
    released, so the pool is exactly as before the call. *)
val fix_page_run : t -> kind:Server.io_kind -> int list -> (int * int) list

val unfix_page : t -> frame:int -> unit

(** Residency without faulting. *)
val frame_of_page : t -> int -> int option

val page_bytes : t -> frame:int -> bytes
val mark_dirty : t -> frame:int -> unit

(** Allocate a fresh page at the server, resident and pinned, with an
    initialized header. Returns (page_id, frame). *)
val new_page : t -> kind:Page.kind -> int * int

(** Evict a specific (unpinned) page, shipping it to the server first
    if dirty — QuickStore's clock calls this. *)
val evict_page : t -> frame:int -> unit

(** {2 Locks and logging} *)

val lock_page : t -> int -> Lock_mgr.mode -> unit
val lock_file : t -> int -> Lock_mgr.mode -> unit

(** [log_update t ~page_id ~frame ~off ~old_data ~new_data] appends an
    ESM log record and stamps the page LSN. The caller has already
    applied the new bytes (or will). *)
val log_update : t -> page_id:int -> frame:int -> off:int -> old_data:bytes -> new_data:bytes -> unit

(** [ship_regions t ~page_id ?check regions] — the diff-shipping
    commit's client half ([Qs_config.diff_ship]): ship only the
    modified [(offset, bytes)] regions of a dirty page through the
    faultable network path (same retry/backoff machinery as a
    whole-page ship); the server patches them onto its copy in place
    ({!Server.apply_regions}). Each ship carries a sequence number
    assigned once, before any retry, so a duplicated or retried
    delivery is never applied twice. [check] (QSan) is the client's
    disk-format image of the whole page; the patched server page must
    equal it byte-for-byte. The caller clears the frame's dirty bit on
    success so {!commit} does not also ship the whole page. *)
val ship_regions : t -> page_id:int -> ?check:bytes -> (int * bytes) list -> unit

(** {2 Objects} *)

exception Dangling_reference of Oid.t

(** [create_object t ~page_id data] places an object on the given page
    if it fits ([None] otherwise). The page is fixed, dirtied and
    logged. *)
val create_object : t -> page_id:int -> bytes -> Oid.t option

(** Allocate a new page and place the object there. *)
val create_object_new_page : t -> bytes -> Oid.t

(** Checked read: verifies the uniqueness stamp, raising
    {!Dangling_reference} on stale OIDs. Fixes and unfixes the page. *)
val read_object : t -> Oid.t -> bytes

(** In-place partial update with ESM logging of the changed range. *)
val update_object : t -> Oid.t -> off:int -> bytes -> unit

val delete_object : t -> Oid.t -> unit

(** Drop a page's frame without write-back (page deletion). *)
val discard_page : t -> int -> unit

(** {2 Cache control and callback locking} *)

(** Opt into callback locking: register a recall endpoint with the
    server ({!Server.register_client}) and keep clean pages cached
    across transactions — callers stop issuing per-transaction
    {!reset_cache}. A recall for a page that is dirty or pinned in the
    active transaction is {e deferred} (never a silent invalidation):
    the page is dropped at transaction end, before the server releases
    the transaction's locks, so the recalling writer finds the copy
    gone by the time its exclusive lock is granted. Clean unpinned
    pages are invalidated on the spot, running the pre-evict hook so a
    mapped store unmaps them first.

    [sanitize] arms the QSan retained-page crosscheck: every clean hit
    on a page cached in an earlier transaction is compared
    byte-for-byte (hence LSN-exact) against the server's authoritative
    copy ({!Server.peek_page}). Idempotent; must be called outside a
    transaction. *)
val enable_callbacks : ?sanitize:bool -> t -> unit

(** The server-assigned client id, once {!enable_callbacks} ran (and
    until {!crash} voids the registration). *)
val client_id : t -> int option

type cb_stats = {
  retained_hits : int;  (** clean hits on pages cached in an earlier transaction *)
  recalls_dropped : int;  (** recalls answered by invalidating on the spot *)
  recalls_deferred : int;  (** recalls deferred to transaction end (page busy) *)
}

val callback_stats : t -> cb_stats

(** Drop all (clean) frames — cold-run protocol. Requires no active
    transaction. With callbacks enabled, also clears this client's
    copy-table entries at the server. *)
val reset_cache : t -> unit

(** Client crash: everything volatile is gone, including the callback
    registration — a later recall through the stale endpoint answers
    [Recall_dead] and the server forgets this client's copy-table
    entries. The server keeps running and will eventually abort the
    orphaned transaction; tests drive that through {!Server.crash} /
    {!Recovery.restart}. *)
val crash : t -> unit
