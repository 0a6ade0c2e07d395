(** On-disk meta-data for the memory-mapped scheme (§3.4).

    Every QuickStore small-object data page reserves slot 0 for a
    {e meta-object} holding the OIDs of the page's {e mapping object}
    (the array of <virtual frame range, disk address> pairs recording
    the mapping in effect when the page was last resident) and of its
    {e bitmap object} (one bit per 4-byte word that holds a pointer,
    consulted only when relocation forces swizzling). Both live on
    separate pages — mapping objects clustered in the order of the data
    pages they describe, bitmap objects likewise — because their sizes
    vary and because they are "hopefully not used in most cases". *)

val meta_slot : int
val meta_object_size : int

(** One mapping-object entry. *)
type entry =
  | E_small of { vframe : int; page : int }
  | E_large of { vframe : int; npages : int; oid : Esm.Oid.t }

val entry_size : int
val entry_vframe : entry -> int
val entry_nframes : entry -> int

(** {2 Meta-object codec (lives in slot 0 of the data page)} *)

val encode_meta : mapping:Esm.Oid.t -> bitmap:Esm.Oid.t -> bytes
val decode_meta : bytes -> Esm.Oid.t * Esm.Oid.t

(** {2 Mapping-object codec}

    A mapping object is a chain of segments; pages with many outbound
    references (base-assembly pages, §5.2 "T7") need several. *)

(** [encode_mapping ?next ~capacity entries] builds one segment with
    room for [capacity] entries (>= length of the list) and an optional
    continuation. *)
val encode_mapping : ?next:Esm.Oid.t -> capacity:int -> entry list -> bytes

val decode_mapping : bytes -> entry list
val mapping_next : bytes -> Esm.Oid.t
val mapping_capacity : bytes -> int
val mapping_object_size : capacity:int -> int
val max_segment_capacity : int

(** {2 Bitmap-object codec: one bit per 32-bit word of the page} *)

val bitmap_object_size : int
val encode_bitmap : Qs_util.Bitset.t -> bytes
val decode_bitmap : bytes -> Qs_util.Bitset.t
val empty_bitmap : unit -> Qs_util.Bitset.t
