(** Fixed-size pool of 8 KB frames with pin counts, dirty flags and
    reference bits.

    The pool is mechanism only: callers pick victims. [clock_victim]
    implements the traditional clock sweep (used by the server and by
    the E client, which sets a reference bit on every object access);
    QuickStore ignores it and runs its simplified protection-driven
    clock from [lib/core/qs_clock.ml] over the same frames — exactly
    the split the paper describes in §3.5. *)

type t

val create : frames:int -> t
val capacity : t -> int
val occupied : t -> int

(** Direct access to a frame's 8 KB buffer. *)
val frame_bytes : t -> int -> bytes

val lookup : t -> int -> int option
val page_of_frame : t -> int -> int option

(** A frame currently holding no page, if any — O(1) (a LIFO free
    list, not a scan): the most recently {!evict}ed frame first.
    [create] and {!clear} reset the list so frames come out in
    ascending index order, matching the historical lowest-empty-frame
    scan on a pure fill. *)
val free_frame : t -> int option

(** [install t ~frame ~page_id] binds the page to the frame (the caller
    has filled or will fill the bytes). The frame must be empty. *)
val install : t -> frame:int -> page_id:int -> unit

(** [evict t frame] unbinds the frame. Raises [Invalid_argument] if
    pinned or dirty (flush first). *)
val evict : t -> int -> unit

val pin : t -> int -> unit
val unpin : t -> int -> unit
val pin_count : t -> int -> int
val is_dirty : t -> int -> bool
val mark_dirty : t -> int -> unit
val clear_dirty : t -> int -> unit
val set_ref_bit : t -> int -> bool -> unit

exception Buffer_full

(** Traditional clock: sweep from the stored hand, skipping pinned
    frames, clearing set reference bits, returning the first frame with
    a clear bit. The frame may be dirty — the caller flushes before
    {!evict}. Raises {!Buffer_full} if every frame is pinned. *)
val clock_victim : t -> int

val iter_frames : (frame:int -> page_id:int -> unit) -> t -> unit
val dirty_pages : t -> (int * int) list

(** Drop all unpinned frames (cache reset between cold runs); requires
    no dirty frames unless [force]. *)
val clear : ?force:bool -> t -> unit

(** Clock hand position, exposed for QuickStore's own sweep. *)
val hand : t -> int

val set_hand : t -> int -> unit
