(** Multi-page ("large") objects.

    OO7's Manual (100 KB / 1 MB) is one of these. A large object is a
    header page holding the size and the ordered list of data-page ids;
    each data page stores [page_payload] content bytes. QuickStore maps
    the data pages onto a contiguous run of virtual frames and keeps
    one meta-object per page (§3.3-3.4); the E interpreter translates
    (object, offset) on every access — which is why T8 is where the two
    systems differ most. *)

(** Content bytes per data page (page size minus header). *)
val page_payload : int

(** Slot number used in large-object OIDs to distinguish them from
    small objects. *)
val large_slot : int

val is_large : Oid.t -> bool

(** [create client ~size] allocates and zeroes a large object. *)
val create : Client.t -> size:int -> Oid.t

val size : Client.t -> Oid.t -> int

(** Ordered data-page ids (for QuickStore's frame mapping). *)
val page_ids : Client.t -> Oid.t -> int array

val read : Client.t -> Oid.t -> off:int -> len:int -> bytes

(** Byte at offset, with only the touched page faulted in. *)
val get_byte : Client.t -> Oid.t -> int -> char

val write : Client.t -> Oid.t -> off:int -> bytes -> unit
