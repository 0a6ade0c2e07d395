(** Little-endian binary encoding helpers over [bytes].

    All persistent structures in the repository (slotted pages, log
    records, mapping objects, B-tree nodes) are serialized with these
    primitives so that the on-"disk" format is well defined and
    byte-for-byte reproducible. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit

val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit

(** 32-bit values are returned as non-negative OCaml [int]s in
    [0, 2^32); this is the representation used for QuickStore's
    persistent virtual-memory pointers. *)

val get_u32 : bytes -> int -> int
val set_u32 : bytes -> int -> int -> unit

(** Unchecked variants of [get_u32]/[set_u32] for the Vmsim
    protected-access fast path. The caller must guarantee
    [0 <= off && off + 4 <= Bytes.length b]; lint rule QS009 confines
    [Bytes.unsafe_*] use to [lib/vmsim] and [lib/util]. *)

val unsafe_get_u32 : bytes -> int -> int
val unsafe_set_u32 : bytes -> int -> int -> unit

val get_i64 : bytes -> int -> int64
val set_i64 : bytes -> int -> int64 -> unit

val get_string : bytes -> int -> int -> string
val set_string : bytes -> int -> string -> unit

(** [set_string_padded b off len s] writes [s] truncated/zero-padded to
    exactly [len] bytes. *)
val set_string_padded : bytes -> int -> int -> string -> unit

(** [get_cstring b off len] reads at most [len] bytes and cuts at the
    first NUL, inverse of [set_string_padded] for NUL-free strings. *)
val get_cstring : bytes -> int -> int -> string

(** [diff_regions ~old_bytes ~new_bytes ~gap] is the list of
    [(offset, length)] regions where the buffers differ, ascending,
    where modified runs separated by fewer than [gap] unchanged bytes
    are coalesced; with [gap = 0] every region is a maximal differing
    run. Empty when the buffers are equal. *)
val diff_regions : old_bytes:bytes -> new_bytes:bytes -> gap:int -> (int * int) list

(** QSan shadow check: true iff replaying [regions] (ascending, as
    {!diff_regions} emits) out of [new_bytes] onto [old_bytes] would
    reproduce [new_bytes] byte-for-byte — i.e. the coalesced diff
    agrees with a full-page comparison. *)
val regions_cover : old_bytes:bytes -> new_bytes:bytes -> (int * int) list -> bool
