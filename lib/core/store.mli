(** QuickStore: the memory-mapped persistent object store.

    Application programs hold {!ptr} values — 32-bit virtual addresses
    — and read or write object fields through them. The first access to
    a page raises a (simulated) protection fault; the handler reads the
    page into the ESM client buffer pool, processes its mapping object,
    assigns virtual frames to every page it references (swizzling
    pointers only when a frame could not be reassigned), enables
    access, and resumes. Updates fault once more per page, snapshotting
    original values into the recovery buffer; commit diffs the
    snapshots into minimal ESM log records and maintains the on-disk
    mapping objects. This is §3 of the paper, end to end.

    Three configurations reproduce the paper's systems: [Standard]
    (QS), [Big_objects] (QS-B), and the relocation modes QS-CR / QS-OR
    of §5.5. *)

type t

(** A persistent pointer: virtual frame in the high bits, page offset
    in the low 13. Dereferencing is direct; there are no software
    residency checks. *)
type ptr = int

(** Raised when neither the persistent frame counter nor a wraparound
    gap scan can supply fresh virtual frames (§3.3). *)
exception Address_space_exhausted

type cluster
type field

val null : ptr
val is_null : ptr -> bool
val ptr_equal : ptr -> ptr -> bool
val ptr_id : t -> ptr -> int

(** {2 Lifecycle} *)

(** Format a fresh database on the server's volume (root directory,
    frame counter, schema object). *)
val create_db : ?config:Qs_config.t -> Esm.Server.t -> t

(** Attach to an existing database (loads the persisted schema and
    frame counter). *)
val open_db : ?config:Qs_config.t -> Esm.Server.t -> t

val config : t -> Qs_config.t
val client : t -> Esm.Client.t
val clock : t -> Simclock.Clock.t
val cost_model : t -> Simclock.Cost_model.t

(** The store's simulated MMU (diagnostics and sanitizer tests). *)
val vm : t -> Vmsim.t

val system_name : t -> string

(** Register a class; its layout (QS pointers; padded to the E size
    under [Big_objects]) is persisted with the database schema. *)
val register_class : t -> Schema.class_def -> unit

val layout : t -> string -> Schema.layout

(** Resolve a field handle for fast repeated access. *)
val field : t -> cls:string -> name:string -> field

(** {2 Transactions} *)

val begin_txn : t -> unit
val commit : t -> unit
val abort : t -> unit
val in_txn : t -> bool

(** {2 Snapshot reads (read-only mode)}

    [with_snapshot_read t f] runs the read-only body [f] against the
    database as of one snapshot LSN, with {b no page locks anywhere on
    the path}: faults inside the body materialize pages into the
    client's private snapshot pool ({!Esm.Client.with_snapshot_txn})
    and bind them read-only and {e frozen} ({!Vmsim.freeze}), so the
    body never enters the lock manager, never wounds or gets wounded,
    and never triggers callback recalls. Write-fault arming and the
    recovery buffer are skipped entirely; a write access inside the
    body raises {!Snapshot_write}. [f] must be a pure read: when
    version reclamation outruns the snapshot the body re-runs at a
    fresh LSN (up to [max_attempts] executions, backoff charged to
    [Category.Retry]). [frames] sizes the private pool and bounds the
    pages one body execution may touch.

    Coverage: pages known to the mapping table (touched by an earlier
    transaction of this store, or by an index or root lookup).
    Requires server versioning ({!Esm.Server.set_versioning}), no
    active update transaction, VM-address pointers and a
    no-relocation configuration; large objects are not supported
    inside a body. *)
val with_snapshot_read : ?frames:int -> ?max_attempts:int -> t -> (unit -> 'a) -> 'a

(** A write access slipped into a snapshot-read body. *)
exception Snapshot_write of { vframe : int }

val in_snapshot : t -> bool

(** The active snapshot's LSN (raises [Esm.Client.No_snapshot] when
    no snapshot body is running). *)
val snapshot_lsn : t -> int64

(** {2 Roots} *)

val set_root : t -> string -> ptr -> unit

(** Raises [Not_found] if the root is absent. *)
val root : t -> string -> ptr

(** {2 Object creation} *)

(** A placement handle: objects created in one cluster fill pages
    sequentially (OO7 clusters a composite part with its atomic parts
    and connections). *)
val new_cluster : t -> cluster

val create : t -> cls:string -> cluster:cluster -> ptr

(** {2 Field access} *)

val get_int : t -> ptr -> field -> int
val set_int : t -> ptr -> field -> int -> unit
val get_ptr : t -> ptr -> field -> ptr
val set_ptr : t -> ptr -> field -> ptr -> unit
val get_chars : t -> ptr -> field -> string
val set_chars : t -> ptr -> field -> string -> unit

(** {2 Large (multi-page) objects} *)

val create_large : t -> size:int -> ptr
val large_size : t -> ptr -> int
val large_byte : t -> ptr -> int -> char
val large_write : t -> ptr -> off:int -> bytes -> unit

(** {2 Indices} *)

val index_create : t -> string -> klen:int -> unit
val index_insert : t -> string -> key:bytes -> ptr -> unit
val index_delete : t -> string -> key:bytes -> ptr -> unit
val index_lookup : t -> string -> key:bytes -> ptr option
val index_range : t -> string -> lo:bytes -> hi:bytes -> (ptr -> unit) -> unit

(** {2 Cold-run protocol and statistics} *)

(** Drop every client-side cache: buffer pools (client and server),
    virtual-memory mappings, the mapping table, cached bitmaps and
    large-object page tables. Requires no active transaction. *)
val reset_caches : t -> unit

type stats = {
  mutable hard_faults : int;  (** faults that performed data I/O *)
  mutable soft_faults : int;  (** faults satisfied from the buffer pool *)
  mutable pages_prefetched : int;
      (** neighbor pages fetched along with a faulting page
          ([Qs_config.prefetch_run_max] > 1); their later first
          accesses are soft faults *)
  mutable write_faults : int;
  mutable pages_swizzled : int;  (** pages whose pointers were rewritten *)
  mutable ptrs_rewritten : int;
  mutable relocations : int;  (** descriptors denied their previous frame *)
  mutable map_entries_processed : int;
  mutable mapping_objects_updated : int;
  mutable pages_diffed : int;
  mutable diff_log_records : int;
  mutable rec_buffer_overflows : int;
  mutable pages_region_shipped : int;
      (** dirty pages whose commit ship was the diff regions, not the
          whole page ([Qs_config.diff_ship]) *)
  mutable region_bytes_shipped : int;  (** payload bytes of those region ships *)
  mutable pages_ship_fallback : int;
      (** diff-ship candidates that shipped whole anyway (estimated
          region cost at or above the full-page cost, or the diff
          covered most of the page) *)
  mutable pages_ship_skipped : int;
      (** write-faulted pages that ended the transaction byte-identical
          to their snapshot: nothing logged, nothing shipped *)
  mutable snapshot_faults : int;
      (** faults served as-of-LSN from the snapshot pool (lock-free) *)
}

val stats : t -> stats
val reset_stats : t -> unit

(** {2 Degradation under injected faults}

    Page faults run the whole miss pipeline under the faulting
    dereference, so an ESM request that exhausts its {!Esm.Client}
    retry budget surfaces as the typed [Esm.Client.Degraded] from the
    access (or commit) that needed it. Descriptor state is only
    mutated after the underlying request succeeds, so reads that
    degrade leave the address space consistent; a commit that degrades
    leaves the ship state unknown and the store must be abandoned via
    {!degraded_crash} followed by {!Esm.Recovery.restart} and a fresh
    {!open_db}. *)

(** [attempt f] runs [f], catching only [Esm.Client.Degraded]. *)
val attempt : (unit -> 'a) -> ('a, Esm.Client.degradation) result

(** Abandon a degraded store: crash the client and server (volatile
    caches and the unforced log tail are lost) and drop every mapping
    so no stale virtual address survives. Follow with
    {!Esm.Recovery.restart} on the server and {!open_db}. *)
val degraded_crash : t -> unit

(** Mapping-table invariant check (tests). *)
val mapping_invariants_hold : t -> bool

(** QSan: one full validation pass over the address space — mapping
    table self-consistency, every mapped MMU frame backed by a
    descriptor, residency/protection/pool agreement per descriptor.
    Raises [Qs_util.Sanitizer.Sanitizer_violation] naming the first
    broken invariant. Runs automatically after every fault and at
    commit when {!Qs_config.t.sanitize} is set. *)
val validate : t -> unit

val mapping_table_size : t -> int
