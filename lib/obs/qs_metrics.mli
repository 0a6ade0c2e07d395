(** Qs_metrics: per-category / per-span rollups of a {!Qs_trace}
    stream, with an exact cross-check against the clock.

    {!of_trace} replays the charge events in recorded order using the
    same float operations {!Simclock.Clock} uses ([+. us] for single
    charges, [+. (float n *. us)] for batched ones), starting from
    exact zero. When the sink was armed for the clock's whole
    accumulation window (armed right after [Clock.create] or
    [Clock.reset]), the replayed totals are therefore {e bit-identical}
    to the clock's — {!crosscheck} compares them via
    [Int64.bits_of_float], no epsilon. *)

module Category = Simclock.Category
module Clock = Simclock.Clock

(** Inclusive rollup for one span name: charges landing in any open
    span of that name (or nested inside one) are attributed to it. *)
type span_row = {
  sr_name : string;
  sr_cat : string;
  mutable sr_count : int;  (** times a span of this name was opened *)
  mutable sr_sim_us : float;  (** summed simulated end - begin *)
  sr_us : float array;  (** inclusive charged us per category *)
  sr_events : int array;
}

type t = {
  cat_us : float array;  (** whole-trace totals, indexed by {!Category.index} *)
  cat_events : int array;
  spans : span_row list;  (** first-open order *)
}

val of_trace : Qs_trace.t -> t

val category_us : t -> Category.t -> float
val category_events : t -> Category.t -> int
val total_us : t -> float
val find_span : t -> string -> span_row option

(** Bit-exact comparison of the replayed per-category totals against
    the clock's current totals. [Error] lists one line per mismatching
    category. *)
val crosscheck : t -> Clock.t -> (unit, string list) result

(** Text tables: per-category totals then per-span rollups. *)
val render : t -> string
