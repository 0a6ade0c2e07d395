(** Height-balanced binary tree over disjoint integer intervals.

    This is the structure the paper's §3.3 uses to organize page
    descriptors "according to the range of virtual memory addresses
    that they contain using a height balanced binary tree". Intervals
    are half-open [lo, hi), pairwise disjoint, and carry a payload.

    The tree is persistent (functional); the mapping table wraps it in
    a mutable reference. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val cardinal : 'a t -> int

(** [add t ~lo ~hi v] inserts the interval [lo, hi).
    Raises [Invalid_argument] if [hi <= lo] or the interval overlaps an
    existing one. *)
val add : 'a t -> lo:int -> hi:int -> 'a -> 'a t

(** [remove t ~lo] removes the interval starting exactly at [lo];
    returns [t] unchanged if absent. *)
val remove : 'a t -> lo:int -> 'a t

(** [find_containing t x] is the interval (and payload) with
    [lo <= x < hi], if any. *)
val find_containing : 'a t -> int -> (int * int * 'a) option

(** Interval with the smallest [lo] such that [lo >= x]. *)
val find_first_from : 'a t -> int -> (int * int * 'a) option

(** In-order traversal (ascending [lo]). *)
val iter : (lo:int -> hi:int -> 'a -> unit) -> 'a t -> unit

val fold : (lo:int -> hi:int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** [find_gap t ?start ~width ~limit] is the start of the lowest gap
    of at least [width] units between existing intervals (or before
    the first / after the last), entirely within [start, limit). Used
    when the persistent frame counter wraps around (paper §3.3). *)
val find_gap : ?start:int -> 'a t -> width:int -> limit:int -> int option

(** [overlaps t ~lo ~hi] is true if [lo, hi) intersects any stored
    interval. *)
val overlaps : 'a t -> lo:int -> hi:int -> bool

(** Structural invariants (balance, ordering, disjointness); used by
    the property tests. *)
val invariants_hold : 'a t -> bool

val height : 'a t -> int
