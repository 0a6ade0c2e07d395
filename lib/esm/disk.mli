(** A simulated raw disk volume: a growable array of 8 KB pages.

    The paper's server stored the database on a raw Sun1.3G partition;
    here the volume lives in memory (with optional save/load to a real
    file so the recovery examples can survive process restarts). I/O
    *costs* are charged by the server, not here; the disk only counts
    raw operations. *)

type t

(** Raised on I/O against a page id that was never allocated (or was
    freed): always a caller bug, never an injected fault. *)
exception Bad_page of { op : string; page : int }

val create : unit -> t

(** Attach a fault injector: every subsequent {!read}/{!write} consults
    {!Qs_fault.disk_gate} and may raise {!Qs_fault.Io_error} (transient,
    retryable) or {!Qs_fault.Injected_crash} (torn write: a prefix of
    the page body persists under the old header). Disarmed injectors
    cost nothing. *)
val set_fault : t -> Qs_fault.t -> unit

(** Number of allocated pages (page ids are [1..n]; 0 is reserved as
    the null page). *)
val page_count : t -> int

(** [alloc t] extends the volume by one zeroed page, or reuses a freed
    page id, and returns the page id. *)
val alloc : t -> int

val free : t -> int -> unit
val is_allocated : t -> int -> bool

(** [read t id dst] copies the page into [dst] (8 KB). *)
val read : t -> int -> bytes -> unit

(** [write t id src] copies [src] (8 KB) onto the page. *)
val write : t -> int -> bytes -> unit

(** [peek t id dst] copies the page into [dst] like {!read}, but
    bypasses the fault injector and the operation counters: for
    sanitizer crosschecks and debugging only, so that observing a page
    can never perturb fault determinism or the measured I/O counts. *)
val peek : t -> int -> bytes -> unit

val reads : t -> int
val writes : t -> int
val reset_counters : t -> unit

(** Total allocated bytes (for Table 2 database sizes). *)
val size_bytes : t -> int

val save_to_file : t -> string -> unit
val load_from_file : string -> t
