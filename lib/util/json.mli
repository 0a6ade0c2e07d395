(** JSON encoders shared by every exporter: the Chrome trace, the
    [BENCH_*.json] baselines and the static-analysis baseline. *)

(** [buf_string b s] appends [s] to [b] as a quoted JSON string,
    escaping double quotes, backslashes and control characters. *)
val buf_string : Buffer.t -> string -> unit

(** [string s] is [s] as a quoted JSON string (see {!buf_string}). *)
val string : string -> string

(** The shortest decimal that round-trips (integers without a
    fraction), and [null] for NaN. *)
val float : float -> string
