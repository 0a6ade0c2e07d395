(** Qs_trace: a zero-cost-when-disarmed structured event layer for the
    simulated store.

    The paper's argument is a cost decomposition (§5.2): every OO7
    number is explained by where the simulated time went — faults,
    protection flips, I/O, swizzling, diffing, interpreter calls. This
    layer records that flow as a stream of events carrying *simulated*
    timestamps from {!Simclock.Clock}, so the decomposition can be
    regenerated from the trace and cross-checked against the clock's
    own category totals (see {!Qs_metrics}), or inspected on a Chrome
    [trace_event] timeline ([chrome://tracing] / Perfetto).

    {2 Arming}

    A sink is attached to one clock with {!create} and recording
    starts at {!arm}. Three kinds of events are captured:

    - {b charges}: every [Clock.charge]/[charge_n] on the armed clock,
      via the clock's observer hook — capture is by construction, so
      trace totals always equal clock totals over the armed window.
    - {b spans}: named nested intervals (per OO7 operation, per
      transaction, per fault handler, per commit sub-phase). Charges
      are attributed to the innermost open span.
    - {b instants/counters}: point events (a protection flip, a disk
      read, a WAL force, a lock grant, a retry).

    {2 Cost discipline}

    Disarmed, the layer must not perturb the simulation: {!charge} and
    {!charge_n} are the clock's own functions (lint rule QS008 makes
    them the only sanctioned charge API outside [lib/simclock]), and
    the span/instant entry points are no-ops after one registry check.
    Call sites that would allocate argument lists guard on {!enabled}.
    Arming never changes what is charged — only what is recorded — so
    clock readings are bit-identical armed and disarmed. *)

module Category = Simclock.Category
module Clock = Simclock.Clock

(** Typed event arguments (become Chrome [args]). *)
type arg = A_int of string * int | A_str of string * string | A_float of string * float

type ev =
  | Ev_begin of { id : int; parent : int; name : string; cat : string; ts : float; args : arg list }
      (** span opened; [parent] is the enclosing span id, or [-1]. *)
  | Ev_end of { id : int; ts : float }
  | Ev_charge of { cat : Category.t; n : int; us : float; span : int; ts : float }
      (** one [Clock.charge]/[charge_n], attributed to the innermost
          open span ([-1] if none). [ts] is the clock total {e after}
          accumulation. *)
  | Ev_instant of { name : string; cat : string; span : int; ts : float; args : arg list }
  | Ev_counter of { name : string; value : float; span : int; ts : float }

(** One trace sink, bound to one clock. *)
type t

(** [create ~clock ()] makes a disarmed sink for [clock]. *)
val create : clock:Clock.t -> unit -> t

val clock : t -> Clock.t

(** Start recording: registers the sink and installs the clock
    observer. For the {!Qs_metrics.crosscheck} guarantee, arm before
    the clock accumulates anything (right after [Clock.create] or
    [Clock.reset]). *)
val arm : t -> unit

(** Stop recording (events are kept; [arm] resumes). *)
val disarm : t -> unit

val armed : t -> bool

(** Number of sinks in the registry (one per clock with an armed sink). *)
val registered : unit -> int

(** Drop all recorded events and close open spans. *)
val clear : t -> unit

(** True when some armed sink is attached to [clock] — the guard for
    call sites that would allocate event arguments. *)
val enabled : Clock.t -> bool

(** The sanctioned charge API (lint rule QS008): exactly
    [Clock.charge]/[Clock.charge_n] — recording happens through the
    clock's observer, so these are free when disarmed. *)
val charge : Clock.t -> Category.t -> float -> unit

val charge_n : Clock.t -> Category.t -> int -> float -> unit

(** [span_begin clock name] opens a span on [clock]'s armed sink (no-op
    otherwise). Spans nest LIFO; close with {!span_end}. *)
val span_begin : Clock.t -> ?args:arg list -> cat:string -> string -> unit

val span_end : Clock.t -> unit

(** [with_span clock ~cat name f] runs [f] inside a span, closing it on
    return or exception. Disarmed, it is [f ()]. *)
val with_span : Clock.t -> ?args:arg list -> cat:string -> string -> (unit -> 'a) -> 'a

val instant : Clock.t -> ?args:arg list -> cat:string -> string -> unit
val counter : Clock.t -> string -> float -> unit

(** Recorded events, in order. *)
val events : t -> ev array

val length : t -> int
val iter : (ev -> unit) -> t -> unit

(** Export as Chrome [trace_event] JSON (the object form, with a
    [traceEvents] array): spans as complete ["X"] events with computed
    durations (open spans close at the last timestamp), instants as
    ["i"], counters as ["C"]. [include_charges] (default [false]) adds
    one ["i"] event per clock charge — faithful but large. Timestamps
    are simulated microseconds. *)
val to_chrome : ?include_charges:bool -> t -> string
