(** Qs_fault: deterministic, seeded fault injection for the simulated
    I/O stack.

    One injector ([t]) is threaded through a whole server stack: the
    {!Esm.Server} owns it, the {!Esm.Disk} consults it on every raw
    page I/O, the {!Esm.Client} consults it on every page-ship request
    and drives the retry/backoff machinery from its decisions, and
    {!Esm.Dist_txn} reports the two-phase-commit coordinator steps.

    The injector is passive until {!arm}ed: every instrumentation hook
    ({!hit}, {!disk_gate}, {!net_gate}) is a constant-time no-op that
    charges nothing to the simulated clock, so a run with injection
    disabled is bit-identical to a run on an uninstrumented build.

    Armed, it follows a {!plan}: a named {e crash point} that fires on
    its [n]-th execution (modelling a process/power failure at exactly
    that instruction), plus independent per-operation probabilities of
    transient disk errors, torn page writes, and lost / duplicated /
    delayed network messages. All randomness comes from one seeded
    generator, so a failing schedule is reproduced exactly by its
    seed. *)

(** The crash-point registry. Every name is a specific instrumented
    site in [lib/esm]; the torture harness enumerates [all] to prove
    each point has been exercised. *)
module Point : sig
  val commit_pre_log : string  (** before the Commit record is appended *)

  val commit_pre_flush : string  (** Commit appended but not yet forced *)

  val commit_mid_flush : string  (** between two page writes of the commit flush *)

  val commit_post_flush : string  (** commit durable, locks not yet released *)

  val commit_ship_page : string  (** client→server page ship of the commit flush *)

  val commit_ship_region : string  (** client→server region ship of a diff-shipping commit *)

  val commit_region_torn : string  (** region apply cut partway: a prefix of the regions lands *)

  val wal_force_partial : string  (** log force cut mid-stream: a prefix survives *)

  val prepare_pre_log : string  (** before the Prepare record is appended *)

  val prepare_post_log : string  (** Prepare forced: the participant is in-doubt *)

  val prepare_mid_flush : string  (** between two page writes of the prepare flush *)

  val abort_mid_undo : string  (** between two undo records of a runtime abort *)

  val evict_steal_write : string  (** mid-transaction dirty-page steal to the server *)

  val checkpoint_mid_flush : string  (** between two page flushes of a checkpoint *)

  val disk_torn_write : string  (** a disk page write persists only a body prefix *)

  val dist_pre_prepare : string  (** 2PC coordinator: before any prepare is sent *)

  val dist_pre_decision : string  (** 2PC: all voted yes, no decision delivered *)

  val dist_mid_decision : string  (** 2PC: decision delivered to some participants *)

  val snapshot_trim : string  (** between two chain trims of a version-watermark sweep *)

  val snapshot_materialize : string  (** before an as-of-LSN page version is assembled *)

  val index_log_append : string  (** before a binding is appended to a log-index tail page *)

  val index_merge_write : string  (** between two data-run page writes of a log-index merge *)

  val index_merge_swing : string  (** merged run written, root entry not yet swung *)

  val all : string list
  val mem : string -> bool
end

type disk_op = Read | Write

(** Verdict for one raw disk operation. [Io_torn n] (writes only)
    persists the first [n] bytes of the page {e body}; the page
    header — and therefore the page LSN — keeps its old contents,
    modelling ESM's discipline of writing the header sector last so a
    torn write is always repairable by LSN-guarded redo. *)
type disk_decision = Io_ok | Io_fail | Io_torn of int

(** Verdict for one client↔server message. [Net_drop] means the
    request (or its reply) is lost and the client discovers it only by
    timeout; [Net_dup] delivers it twice; [Net_delay us] charges [us]
    extra microseconds before delivery. *)
type net_decision = Net_ok | Net_drop | Net_dup | Net_delay of float

(** A scheduled crash fired: the process hosting the instrumented code
    dies at this point. The exception unwinds to the harness, which
    calls [Server.crash] / [Client.crash] and restarts. *)
exception Injected_crash of { point : string; hit : int }

(** A transient disk error (retryable at the requesting client). *)
exception Io_error of { op : disk_op; page : int }

(** A lost client↔server message, detected by timeout (retryable). *)
exception Net_error of { op : string; page : int }

type plan = {
  crash_point : (string * int) option;
      (** fire [Injected_crash] on the [n]-th execution of this point *)
  disk_read_p : float;  (** per-read probability of a transient error *)
  disk_write_p : float;  (** per-write probability of a transient error *)
  net_drop_p : float;  (** per-message probability of loss *)
  net_dup_p : float;  (** per-message probability of duplication *)
  net_delay_p : float;  (** per-message probability of delay *)
  net_delay_us : float;  (** the delay charged when one occurs *)
  rng_seed : int;  (** seed of the plan's private generator *)
}

val no_faults : plan

(** [plan_of_spec ~seed spec] parses a command-line fault spec:
    comma-separated [key=value] with keys [disk], [disk_read],
    [disk_write], [drop], [dup], [delay] (probabilities),
    [delay_us] (microseconds) and [crash=<point>:<hit>].
    Raises [Invalid_argument] on unknown keys or unregistered crash
    points. Example: ["disk=0.01,drop=0.05,crash=commit.mid_flush:2"]. *)
val plan_of_spec : seed:int -> string -> plan

val spec_syntax : string

type t

(** A disarmed injector: all hooks are no-ops. *)
val create : unit -> t

(** [arm t plan] resets hit counts and the generator and activates the
    plan. *)
val arm : t -> plan -> unit

val disarm : t -> unit
val armed : t -> bool

(** [crash_at t ~point ~hit] arms a pure crash schedule (no transient
    faults): the [hit]-th execution of [point] raises. *)
val crash_at : t -> point:string -> hit:int -> unit

(** {2 Instrumentation hooks (called from lib/esm)} *)

(** [hit t point] marks one execution of a registered crash point.
    If the armed schedule targets it and the count matches, [on_fire]
    (if any) runs first — with a seeded fraction in [0,1) for sites
    that need to cut work partway, like a partial log force — and then
    {!Injected_crash} is raised and the injector is {e halted} until
    the crash is taken. Raises [Invalid_argument] on unregistered
    names. *)
val hit : ?on_fire:(frac:float -> unit) -> t -> string -> unit

(** Decision for one raw disk access (consulted by [Disk.read]/
    [Disk.write]). Torn writes are scheduled as crash point
    {!Point.disk_torn_write} counted over disk writes. *)
val disk_gate : t -> op:disk_op -> page:int -> disk_decision

(** Decision for one client↔server message. *)
val net_gate : t -> op:string -> page:int -> net_decision

(** {2 Crash lifecycle} *)

(** True from the moment a scheduled crash fires until {!clear_halt}:
    the dead server refuses further requests ([Server_down]) so a
    coordinator cannot keep talking to a crashed participant. *)
val halted : t -> bool

(** Taken by [Server.crash]: the volatile state is gone, the (restarted)
    server may serve again. *)
val clear_halt : t -> unit

(** {2 Introspection} *)

val hit_count : t -> string -> int

(** The crash point that fired, with the hit index it fired on. *)
val fired : t -> (string * int) option

(** Transient (non-crash) faults injected since the last {!arm}. *)
val transients_injected : t -> int
