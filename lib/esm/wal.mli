(** Write-ahead log.

    ESM recovery "is based on logging the changed portions of objects";
    each record carries a ~50-byte header — the constant that drives
    QuickStore's diff-coalescing decision (§3.6). The log distinguishes
    appended from *forced* records: on a simulated crash only the
    forced prefix survives. *)

type record =
  | Begin of int
  | Update of { txn : int; page : int; off : int; old_data : bytes; new_data : bytes }
  | Index_insert of { txn : int; root : int; key : bytes; oid : Oid.t }
      (** logical (idempotent) index-operation records; ESM logs index
          updates separately under its non-2PL index protocol *)
  | Index_delete of { txn : int; root : int; key : bytes; oid : Oid.t }
  | Prepare of int
      (** two-phase commit: the participant's durable yes-vote; a
          prepared transaction survives a crash in-doubt until the
          coordinator's decision arrives *)
  | Commit of int
  | Abort of int

(** Bytes of header per record; payload is [old|new] for updates. *)
val header_bytes : int

type t

val create : unit -> t

(** [append t r] returns the LSN of the new record (LSNs are dense,
    starting at 1). *)
val append : t -> record -> int64

(** [force t] makes everything appended so far durable; returns the
    number of 8 KB log pages newly written (for cost charging). *)
val force : t -> int

(** Records appended but not yet durable. *)
val unforced : t -> int

(** [force_upto t k] makes only the first [k] records of the unforced
    tail durable (a log force torn by an injected crash); returns the
    number actually forced. No cost accounting: the caller crashes
    immediately after. *)
val force_upto : t -> int -> int

val forced_lsn : t -> int64
val last_lsn : t -> int64

(** All records with LSN <= the forced LSN, in order, with their LSNs. *)
val iter_forced : (int64 -> record -> unit) -> t -> unit

(** Every record still held, forced or not, in order, with LSNs. QSan's
    snapshot-replay invariant needs the unforced tail too: a version
    chain reflects appended-but-unforced updates the moment the buffer
    pool does. *)
val iter_all : (int64 -> record -> unit) -> t -> unit

(** LSN of the last record dropped by {!truncate} (0 before any
    truncation): records with LSN <= this are gone, so a replay check
    anchored below it must be skipped, not failed. *)
val base_lsn : t -> int64

(** Simulate losing the unforced tail (client/server crash). *)
val survive_crash : t -> t

(** Drop all records after a checkpoint (their effects are durable on
    data pages); LSNs remain monotonic. *)
val truncate : t -> unit

val record_count : t -> int
val total_bytes : t -> int

(** Bytes appended by [Update] records only (log-volume accounting for
    the diffing experiments). *)
val update_bytes : t -> int

(** Log bytes already written to disk pages (the durable prefix) —
    [forced_bytes t / Page.page_size] is the number of full log pages
    on disk, the quantity group commit compares across forces. *)
val forced_bytes : t -> int
