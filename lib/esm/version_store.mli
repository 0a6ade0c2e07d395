(** Per-page version chains for snapshot-isolation reads.

    The server retains, for each recently updated page, a bounded chain
    of {e undo} deltas in the diff-ship region format, folded from the
    committing transaction's own log records: the newest delta
    rolls the current committed image back one commit, the next one
    commit further, and so on down to a full base image kept for QSan's
    WAL-replay cross-check. Versions are named by commit-record LSNs —
    the point at which a transaction's writes become visible — so a
    snapshot taken at LSN [S] reads every page exactly as the last
    commit at or below [S] left it, with no page locks anywhere on the
    path. *)

type delta = {
  from_lsn : int64;  (** commit LSN this delta undoes *)
  to_lsn : int64;  (** committed version the page reverts to *)
  regions : (int * bytes) list;  (** (offset, pre-commit bytes), ascending *)
}

type chain = {
  cpage : int;
  base_image : bytes;  (** full image as of [base_lsn] (QSan replay anchor) *)
  base_lsn : int64;
  mutable stable_lsn : int64;  (** newest committed version *)
  mutable deltas : delta list;  (** newest first *)
  mutable bytes_retained : int;
}

type stats = {
  mutable deltas_pushed : int;
  mutable deltas_dropped : int;  (** evicted by the per-chain bound *)
  mutable deltas_trimmed : int;  (** reclaimed below the watermark *)
  mutable materializations : int;
  mutable too_old : int;
}

type t

(** A snapshot read could not be served: every retained version of the
    page is newer than the snapshot (its deltas were reclaimed or
    bounded away). The client retries at a fresh snapshot LSN. *)
exception Snapshot_too_old of { page : int; snapshot : int64; oldest : int64 }

(** [create ~enable_lsn ()] starts versioning: every page is considered
    version [enable_lsn] until a later commit updates it. [max_deltas]
    bounds each chain; pushing past the bound drops the oldest delta
    (making sufficiently old snapshots unservable for that page). *)
val create : ?max_deltas:int -> enable_lsn:int64 -> unit -> t

val stats : t -> stats
val enable_lsn : t -> int64
val chain : t -> int -> chain option

(** Total bytes held across all chains (base images + delta payloads). *)
val bytes_retained : t -> int

val delta_bytes : delta -> int

(** [push t ~page ~regions ~current ~commit_lsn] records one committed
    update: [current] is the image the committing transaction left,
    [regions] its undo delta — ascending, non-overlapping
    [(offset, bytes)] runs holding each byte as it stood before the
    transaction, folded from the transaction's own [Update] records. A
    new chain's base image is [current] with [regions] applied. A
    commit with no logged bytes on the page ([regions = []]) pushes
    nothing but still advances the page's version stamp. *)
val push : t -> page:int -> regions:(int * bytes) list -> current:bytes -> commit_lsn:int64 -> unit

(** [materialize t ~page ~snapshot ~stable dst] writes the page as of
    [snapshot] into [dst]. [stable] must be the newest {e committed}
    image: with an in-flight writer, the server's copy rolled back
    through that writer's [Update] records.
    Returns the number of deltas applied. Raises {!Snapshot_too_old}
    when the chain no longer reaches back to [snapshot]. *)
val materialize : t -> page:int -> snapshot:int64 -> stable:bytes -> bytes -> int

(** [trim t ~watermark] reclaims every delta no active snapshot can
    need ([from_lsn <= watermark], the oldest active snapshot LSN) and
    drops chains emptied by the sweep. [on_trim] runs once per chain
    about to lose deltas (crash-point instrumentation). *)
val trim : ?on_trim:(unit -> unit) -> t -> watermark:int64 -> unit

(** Crash: drop all chains and stamps, restart versioning at
    [enable_lsn] (the restarted server's log position). *)
val reset : t -> enable_lsn:int64 -> unit
