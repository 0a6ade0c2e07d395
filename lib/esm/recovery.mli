(** Restart recovery from the forced log.

    Call after {!Server.crash}. Three phases, ARIES-flavoured:

    - {b analysis}: classify transactions into finished (Commit/Abort
      record present) and losers;
    - {b redo}: replay physical update records in LSN order against the
      disk image, guarded by page LSNs; then replay logical index
      records of finished transactions (idempotent);
    - {b undo}: apply losers' before-images in reverse, logging
      compensations, invert their logical index operations, and write
      Abort records.

    Known limitation (documented in DESIGN.md): a B-tree structural
    change (split) is crash-atomic only at commit boundaries; a loser
    transaction whose split pages reached disk through mid-transaction
    steal can leave orphan index pages (never corrupt committed data).
*)

(** Run restart recovery; returns statistics. *)
type stats = {
  redo_applied : int;
  redo_skipped : int;
  logical_replayed : int;
  losers_undone : int;
  loser_updates_undone : int;
}

(** [restart ?sanitize server] runs the three phases. With
    [~sanitize:true] the redo pass additionally fail-fasts (raising
    [Qs_util.Sanitizer.Sanitizer_violation], check ["lsn-monotone"])
    when a disk page carries an LSN beyond the end of the forced log —
    evidence of a write that bypassed write-ahead ordering. *)
val restart : ?sanitize:bool -> Server.t -> stats
