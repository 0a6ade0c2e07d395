(** Cost categories for simulated time.

    The categories mirror the paper's detailed breakdowns: Table 6
    (QuickStore per-fault costs), the T2 update/commit decomposition in
    §5.2, and the Table 7 hot-CPU profile. Every microsecond charged to
    the simulated clock lands in exactly one category, so those tables
    can be regenerated directly from a clock snapshot. *)

type t =
  | Data_io  (** reading a data page: server disk + page ship (Table 6 "data I/O") *)
  | Map_io  (** reading pages of mapping objects (Table 6 "map I/O") *)
  | Page_fault  (** detecting the illegal access and invoking the handler *)
  | Min_fault  (** virtually-mapped CPU cache remaps, §3.2 *)
  | Mmap_call  (** protection changes via the simulated mmap *)
  | Swizzle  (** processing mapping-table entries and rewriting pointers *)
  | Fault_misc  (** residency/status checks and bookkeeping in the handler *)
  | Write_fault_copy  (** copying a page into the recovery buffer on first write *)
  | Lock_acquire  (** lock manager requests (page/file/index) *)
  | Diff  (** commit-time page diffing (QS) or side-buffer compare (E) *)
  | Log_write  (** generating log records and appending to the WAL *)
  | Map_update  (** commit-time mapping-object maintenance (QS only) *)
  | Commit_flush  (** forcing the log and shipping dirty pages to the server *)
  | Interp  (** EPVM interpreter function calls (E only) *)
  | Residency_check  (** E's in-line residency tests on swizzled derefs *)
  | Index_op  (** B-tree lookup/scan/update CPU *)
  | App_malloc  (** transient iterator allocation (Table 7 "malloc") *)
  | App_set  (** visited-part set maintenance (Table 7 "part set") *)
  | App_traverse  (** traversal driver work (Table 7 "traverse") *)
  | App_deref  (** raw pointer dereferences in application code *)
  | App_work  (** other per-datum application CPU (compares, counts) *)
  | Retry  (** client backoff and request timeouts under injected faults *)
  | Lock_wait  (** blocked in the lock manager waiting for a conflicting holder *)
  | Callback  (** callback-locking recall round trips (server asks a client to drop a cached page) *)
  | Snapshot_read  (** materializing an as-of-LSN page version for a snapshot transaction *)

let all =
  [ Data_io; Map_io; Page_fault; Min_fault; Mmap_call; Swizzle; Fault_misc; Write_fault_copy
  ; Lock_acquire; Diff; Log_write; Map_update; Commit_flush; Interp; Residency_check; Index_op
  ; App_malloc; App_set; App_traverse; App_deref; App_work; Retry; Lock_wait; Callback
  ; Snapshot_read ]

(* The constructors in declaration order are the integers 0..24, so the
   index is the constructor's own representation. An [external] lives
   in the .cmi, so callers inline it even when cross-module inlining is
   off ([-opaque]); test_schema pins the order against [all]. *)
external index : t -> int = "%identity"

let count = 25

let name = function
  | Data_io -> "data I/O"
  | Map_io -> "map I/O"
  | Page_fault -> "page fault"
  | Min_fault -> "min faults"
  | Mmap_call -> "mmap"
  | Swizzle -> "swizzling"
  | Fault_misc -> "misc. cpu overhead"
  | Write_fault_copy -> "recovery copy"
  | Lock_acquire -> "locking"
  | Diff -> "diffing"
  | Log_write -> "log generation"
  | Map_update -> "mapping update"
  | Commit_flush -> "commit flush"
  | Interp -> "EPVM interpreter"
  | Residency_check -> "residency checks"
  | Index_op -> "index ops"
  | App_malloc -> "malloc"
  | App_set -> "part set"
  | App_traverse -> "traverse"
  | App_deref -> "pointer deref"
  | App_work -> "app work"
  | Retry -> "retry/timeout"
  | Lock_wait -> "lock wait"
  | Callback -> "callbacks"
  | Snapshot_read -> "snapshot read"
