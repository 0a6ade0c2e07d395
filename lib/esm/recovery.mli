(** Restart recovery from the forced log.

    Call after {!Server.crash}. Three phases, ARIES-flavoured:

    - {b analysis}: classify transactions into finished (Commit/Abort
      record present) and losers, collecting each loser's records;
    - {b redo}: replay physical update records in LSN order against the
      disk image, guarded by page LSNs; then replay logical index
      records of finished transactions (idempotent);
    - {b undo}: abort each loser through {!Server.adopt_loser} and
      {!Server.abort}, one at a time. Compensations are thus forced
      before any undone page reaches the disk, and a crash inside
      restart leaves a log the next restart can finish from.

    Known limitation (documented in DESIGN.md): a B-tree structural
    change (split) is crash-atomic only at commit boundaries; a loser
    transaction whose split pages reached disk through mid-transaction
    steal can leave orphan index pages (never corrupt committed data).
*)

(** Run restart recovery; returns statistics. *)
type stats = {
  logical_replayed : int;
  losers_undone : int;
  loser_updates_undone : int;
}

(** [restart ?sanitize server] runs the three phases. With
    [~sanitize:true] it additionally fail-fasts, raising
    [Qs_util.Sanitizer.Sanitizer_violation]: check ["lsn-monotone"]
    when a disk page carries an LSN beyond the end of the forced log —
    evidence of a write that bypassed write-ahead ordering — and check
    ["loser-disjoint"] when two losers logged updates to the same page,
    which strict two-phase locking rules out and loser-at-a-time undo
    relies on. *)
val restart : ?sanitize:bool -> Server.t -> stats
