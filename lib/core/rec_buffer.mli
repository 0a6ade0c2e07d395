(** The recovery buffer and the page-diffing scheme (§3.6).

    On the first write fault of a page, the fault handler copies the
    page's original bytes here. At commit — or earlier, when the buffer
    fills or the page is evicted — old and new values are compared
    ({!Qs_util.Codec.diff_regions}) and log records generated. The coalescing rule minimizes logged bytes:
    two modified regions are merged into one record when the clean gap
    between them is smaller than the ~50-byte log-record header. *)

type t

val create : capacity_bytes:int -> t
val capacity_bytes : t -> int
val count : t -> int
val mem : t -> int -> bool

(** Would adding one more page snapshot overflow the capacity? *)
val would_overflow : t -> bool

(** [add t page_id bytes] snapshots the page (bytes are copied).
    Raises [Invalid_argument] if already present or over capacity. *)
val add : t -> int -> bytes -> unit

(** Remove and return the snapshot. *)
val take : t -> int -> bytes option

val iter : (page_id:int -> baseline:bytes -> unit) -> t -> unit
val clear : t -> unit

(** Total bytes a region list would put in the log (payload counts old
    and new images plus one header per record) — the quantity the
    coalescing rule minimizes. *)
val log_bytes_of_regions : (int * int) list -> int
