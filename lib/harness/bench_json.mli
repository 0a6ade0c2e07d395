(** Machine-readable results: the bench-shape baselines.

    {!baselines} is the one table of committed [BENCH_*.json] files:
    [bench/main.exe --json] writes every row, [test_bench_json]
    regenerates every row and compares it byte for byte with the
    committed file (and fails on a [BENCH_*.json] without a row), and
    CI diffs [BENCH_*.json]. A new baseline is one row here. *)

(** One log-index or B-tree build+probe of the index baseline. *)
type index_run = {
  ir_system : string;  (** ["log"] or ["btree"] *)
  ir_n : int;  (** bindings in the index *)
  ir_insert_us : float;  (** amortized simulated µs per insert, merges included *)
  ir_lookup_us : float;  (** simulated µs per cold lookup *)
  ir_lookup_reads : float;  (** server page reads per cold lookup *)
  ir_generation : int;  (** merges folded (0 for the B-tree) *)
  ir_log_len : int;  (** unmerged log tail (0 for the B-tree) *)
}

(** What a baseline ran, for the bench's human-readable tables. *)
type runs =
  | Suites of Experiments.suite list
  | Mc_runs of Mc.stats list
  | Index_runs of index_run list

type baseline = {
  file : string;  (** in the repo root *)
  title : string;  (** the [bench/main.exe] section it heads *)
  run : progress:(string -> unit) -> seed:int -> runs * string;
      (** the runs and their JSON, which must equal [file]'s bytes *)
}

val baselines : baseline list

(** Column headings and rows of the index runs, from the same fields
    the JSON prints. *)
val index_table : index_run list -> string list * string list list

(** [log_spread sel runs] is the lowest and highest [sel] over the
    log-index runs and their ratio; [None] without log-index runs. *)
val log_spread : (index_run -> float) -> index_run list -> (float * float * float) option
