(** Simulated virtual memory.

    This substitutes for the SPARC MMU + SunOS [mmap]/SIGSEGV machinery
    the paper relies on (OCaml's GC cannot tolerate raw mapped object
    graphs, so the trap mechanism is modeled rather than borrowed from
    the host). The address space is 32-bit, divided into 8 KB frames.
    Each frame has a protection level and may be bound to a byte buffer
    (a client buffer-pool frame). An access that the protection does
    not allow invokes the registered fault handler — QuickStore's
    §3.1 fault-handling routine — and is then retried, exactly like a
    restarted instruction.

    Cost charging: the trap itself charges [page_fault_us]
    per fault; protection changes charge [mmap_us] per call. What the
    handler does (I/O, swizzling, min-fault cache effects) is charged
    by the handler. Successful accesses are free, as on real hardware
    — the whole point of the memory-mapped scheme.

    Wall-clock fast path: a direct-mapped software TLB (frame ->
    mapping) serves protected no-fault accesses without touching the
    hashtable, and the scalar accessors use unchecked [Bytes] reads
    unless {!set_checked} is on (QSan). Both are pure host-CPU
    optimizations — a TLB hit can occur only where the slow path would
    have succeeded without charging, so every simulated clock reading
    is bit-identical with and without them. *)

type t

type prot = Prot_none | Prot_read | Prot_write  (** write implies read *)
type access = Read | Write

val frame_size : int
val frame_count : int  (** 2^19 frames = a 4 GB 32-bit space *)

val create : clock:Simclock.Clock.t -> cm:Simclock.Cost_model.t -> unit -> t

(** [set_checked t true] routes the scalar accessors through
    bounds-checked [Bytes] operations (QSan installs this together with
    its post-fault validation hook); [false] (the default) uses the
    unchecked fast path, which is safe because {!map} only binds
    buffers of exactly [frame_size] bytes and every access is
    span-checked within the frame. Charges nothing either way. *)
val set_checked : t -> bool -> unit

(** {2 Address arithmetic} *)

val frame_of_addr : int -> int
val offset_of_addr : int -> int
val addr_of_frame : int -> int

(** {2 Mapping and protection (the simulated mmap)} *)

(** Bind a virtual frame to a physical buffer (8 KB bytes). Does not
    change protection and does not charge (binding is bookkeeping; the
    paper's single mmap call per fault is the protection change). *)
val map : t -> frame:int -> buf:bytes -> unit

(** Unbind; protection reverts to none. No charge (bookkeeping). *)
val unmap : t -> frame:int -> unit

val is_mapped : t -> frame:int -> bool
val buf_of_frame : t -> frame:int -> bytes option

(** Change protection; charges one mmap call. *)
val set_prot : t -> frame:int -> prot -> unit

(** Protection change without charging (experiment setup). *)
val set_prot_free : t -> frame:int -> prot -> unit

val prot : t -> frame:int -> prot

(** {2 Frozen frames (snapshot-read protection)}

    A frozen frame is a mapped frame whose protection can never be
    escalated to [Prot_write]: {!set_prot}/{!set_prot_free} raise
    {!Frozen_frame} instead. The mapped store freezes the read-only
    bindings of snapshot-materialized pages so that no fault-handler
    path can make as-of-LSN bytes writable. Downgrades (and
    {!protect_all}) remain allowed; {!unmap} and {!clear} drop the
    flag with the mapping. *)

(** Raised by a [Prot_write] escalation attempt on a frozen frame. *)
exception Frozen_frame of { frame : int }

val freeze : t -> frame:int -> unit
val unfreeze : t -> frame:int -> unit
val frozen : t -> frame:int -> bool

(** Revoke access on every mapped frame with a single call — the one
    big mmap of QuickStore's simplified clock (§3.5). Charges one mmap
    call ([mmap_us]) plus [mmap_frame_us] per mapped frame, so
    end-of-transaction unmapping cost scales with the working set. *)
val protect_all : t -> unit

(** Mapped frames with their protections (diagnostics/tests). *)
val iter_mapped : (frame:int -> prot:prot -> unit) -> t -> unit

(** Drop all mappings (end of transaction / crash). No charge. *)
val clear : t -> unit

(** {2 Faulting} *)

exception Unhandled_fault of { addr : int; access : access }

(** The handler must leave the faulting frame mapped with sufficient
    protection, or {!Unhandled_fault} is raised (a "segfault"). *)
val set_fault_handler : t -> (frame:int -> access:access -> unit) -> unit

(** Diagnostics hook run after a handler successfully services a
    fault, before the access retries. QSan ([Qs_config.sanitize])
    installs its address-space validation here; charges nothing. *)
val set_post_fault_hook : t -> (frame:int -> unit) -> unit

val fault_count : t -> int

(** {2 Application access path}

    All reads/writes below check protection, trap to the handler when
    needed, then perform the access against the bound buffer. Accesses
    must not cross a frame boundary (objects never span pages). *)

val read_u8 : t -> int -> int
val read_u32 : t -> int -> int
val read_bytes : t -> int -> int -> bytes
val write_u8 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_bytes : t -> int -> bytes -> unit
