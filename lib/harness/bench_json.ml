(* The bench-shape baselines. Floats print as the shortest
   round-tripping decimal, so every file is byte-stable run to run and
   any change to one is a real change in bench shape. *)

module Exp = Experiments
module Qs_config = Quickstore.Qs_config

let json_float = Qs_util.Json.float
let json_string = Qs_util.Json.string
let field k v = Printf.sprintf "\"%s\":%s" k v
let json_object fields = "{" ^ String.concat "," fields ^ "}"

type index_run = {
  ir_system : string;
  ir_n : int;
  ir_insert_us : float;
  ir_lookup_us : float;
  ir_lookup_reads : float;
  ir_generation : int;
  ir_log_len : int;
}

type runs = Suites of Exp.suite list | Mc_runs of Mc.stats list | Index_runs of index_run list

type baseline = {
  file : string;
  title : string;
  run : progress:(string -> unit) -> seed:int -> runs * string;
}

(* ------------------------------------------------------------------ *)
(* OO7 suites on the small database.                                   *)

(* [extra] appends suite-specific "key":value pairs to each op object
   (the diff-ship baseline adds its region-ship counters). *)
let op_json ~extra (op, (r : System.run_result)) =
  let m = r.System.cold in
  let opt_ms = function Some (m : Measure.t) -> json_float m.Measure.ms | None -> "null" in
  json_object
    ([ field "op" (json_string op)
     ; field "cold_ms" (json_float m.Measure.ms)
     ; field "hot_ms" (opt_ms r.System.hot)
     ; field "commit_ms" (opt_ms r.System.commit)
     ; field "result" (string_of_int m.Measure.result)
     ; field "reads" (string_of_int m.Measure.client_reads)
     ; field "reads_data" (string_of_int m.Measure.reads_data)
     ; field "reads_map" (string_of_int m.Measure.reads_map)
     ; field "reads_index" (string_of_int m.Measure.reads_index)
     ; field "writes" (string_of_int m.Measure.client_writes)
     ; field "commit_writes"
         (string_of_int (match r.System.commit with Some c -> c.Measure.client_writes | None -> 0))
     ; field "faults" (string_of_int r.System.cold_faults) ]
    @ extra r)

(* Fastest-to-slowest by total response (cold + commit); ties keep the
   suite order. These are the paper's win/loss relationships — the
   part of bench shape that must never drift silently. *)
let ordering_json (suites : Exp.suite list) op =
  let totals =
    List.map (fun s -> (s.Exp.sys.System.name, System.total_response (Exp.get s op))) suites
  in
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare a b) totals in
  Printf.sprintf "{\"op\":%s,\"fastest_to_slowest\":[%s]}" (json_string op)
    (String.concat "," (List.map (fun (n, _) -> json_string n) sorted))

let render_suites ~extra ~benchmark ~seed ~hot_reps (suites : Exp.suite list) =
  let ops = match suites with [] -> [] | s :: _ -> List.map fst s.Exp.results in
  let suite_json (s : Exp.suite) =
    Printf.sprintf "{\"name\":%s,\"db_mb\":%s,\"ops\":[%s]}"
      (json_string s.Exp.sys.System.name)
      (json_float (s.Exp.sys.System.db_size_mb ()))
      (String.concat "," (List.map (op_json ~extra) s.Exp.results))
  in
  Printf.sprintf
    "{\"benchmark\":%s,\"database\":%s,\"seed\":%d,\"hot_reps\":%d,\"systems\":[%s],\"orderings\":[%s]}\n"
    (json_string benchmark) (json_string "small") seed hot_reps
    (String.concat "," (List.map suite_json suites))
    (String.concat "," (List.map (ordering_json suites) ops))

let qs config ~seed = System.make_qs ~config Oo7.Params.small ~seed
let e ~seed = System.make_e Oo7.Params.small ~seed

(* Build every system first, then run [ops] on each in turn. *)
let oo7 ?(extra = fun _ -> []) ~file ~title ~benchmark ~building ~label ~systems ~ops ~hot_reps () =
  let run ~progress ~seed =
    progress (Printf.sprintf "building small databases (%s)..." building);
    let systems = List.map (fun make -> make ~seed) systems in
    let suites =
      List.map
        (fun (sys : System.t) ->
          progress (Printf.sprintf "running %s operations on %s..." label sys.System.name);
          Exp.run_suite ~seed ~hot_reps sys ~ops)
        systems
    in
    (Suites suites, render_suites ~extra ~benchmark ~seed ~hot_reps suites)
  in
  { file; title; run }

(* The region-ship counters the diff-ship baseline exists to pin: how
   many dirty pages the commit shipped as regions and how many payload
   bytes that took (0 for E and for read-only ops). *)
let diffship_extra (r : System.run_result) =
  let ships, bytes =
    match r.System.commit with
    | Some c -> (c.Measure.region_ships, c.Measure.region_bytes)
    | None -> (0, 0)
  in
  [ field "commit_region_ships" (string_of_int ships)
  ; field "commit_region_bytes" (string_of_int bytes) ]

(* ------------------------------------------------------------------ *)
(* Multi-client runs of the [Mc] hot-page-skew workload.               *)

(* Every [Mc.stats] field a baseline may pin, by JSON key; each
   baseline picks its own ordered subset. *)
let mc_fields : (string * (Mc.stats -> string)) list =
  let int k f = (k, fun s -> string_of_int (f s)) in
  let num k f = (k, fun s -> json_float (f s)) in
  let str k f = (k, fun s -> json_string (f s)) in
  [ int "clients" (fun s -> s.Mc.clients)
  ; int "txns_per_client" (fun s -> s.Mc.txns_per_client)
  ; int "read_pct" (fun s -> s.Mc.read_pct)
  ; int "committed" (fun s -> s.Mc.committed)
  ; int "read_txns" (fun s -> s.Mc.read_txns)
  ; int "deadlock_retries" (fun s -> s.Mc.deadlock_retries)
  ; int "lock_waits" (fun s -> s.Mc.lock_waits)
  ; num "lock_wait_ms" (fun s -> s.Mc.lock_wait_ms)
  ; num "retry_ms" (fun s -> s.Mc.retry_ms)
  ; num "total_ms" (fun s -> s.Mc.total_ms)
  ; int "reads" (fun s -> s.Mc.reads)
  ; int "writes" (fun s -> s.Mc.writes)
  ; int "retained_hits" (fun s -> s.Mc.retained_hits)
  ; int "callbacks_sent" (fun s -> s.Mc.callbacks_sent)
  ; int "callbacks_deferred" (fun s -> s.Mc.callbacks_deferred)
  ; int "gc_rides" (fun s -> s.Mc.gc_rides)
  ; int "gc_cross_rides" (fun s -> s.Mc.gc_cross_rides)
  ; int "snapshot_reads" (fun s -> s.Mc.snapshot_reads)
  ; int "snapshot_deltas" (fun s -> s.Mc.snapshot_deltas)
  ; int "snapshot_retries" (fun s -> s.Mc.snapshot_retries)
  ; ( "per_client"
    , fun s ->
        "["
        ^ String.concat ","
            (List.map
               (fun (c : Mc.client_stats) ->
                 Printf.sprintf "{\"name\":%s,\"committed\":%d,\"retries\":%d}"
                   (json_string c.Mc.cs_name) c.Mc.cs_committed c.Mc.cs_retries)
               s.Mc.per_client)
        ^ "]" )
  ; int "trace_events" (fun s -> s.Mc.trace_events)
  ; str "world_digest" (fun s -> s.Mc.world_digest)
  ; str "trace_digest" (fun s -> s.Mc.trace_digest) ]

(* [mode] names a run's regime, the first field of each run when
   given; [summary] adds fields ahead of the runs. *)
let mc ?mode ?(summary = fun _ -> []) ~file ~title ~benchmark ~fields runner =
  let mode = match mode with Some m -> [ ("mode", fun s -> json_string (m s)) ] | None -> [] in
  let fields = mode @ List.map (fun k -> (k, List.assoc k mc_fields)) fields in
  let run ~progress ~seed =
    let runs = runner ~progress ~seed in
    let run_json s = json_object (List.map (fun (k, f) -> field k (f s)) fields) in
    ( Mc_runs runs
    , Printf.sprintf "{\"benchmark\":%s,\"database\":%s,\"seed\":%d,%s\"runs\":[%s]}\n"
        (json_string benchmark) (json_string "mc-hotskew") seed
        (String.concat "" (List.map (fun f -> f ^ ",") (summary runs)))
        (String.concat "," (List.map run_json runs)) )
  in
  { file; title; run }

(* The two regimes of a callback or snapshot baseline, off first. *)
let both_regimes what = function
  | [ off; on ] -> (off, on)
  | _ -> invalid_arg ("Bench_json: " ^ what ^ " needs one run per regime")

(* ------------------------------------------------------------------ *)
(* The log-index baseline: lookup cost must stay flat as the index
   grows.

   For each scale the run builds a fresh index — the log-structured
   [Esm.Log_index] at 10^4..10^6 bindings, the B-tree oracle (with a
   small fan-out, so depth growth is visible at bench scale) at
   10^4..10^5 — and then measures a fixed number of cold lookups:
   client cache dropped before every probe, so each one pays the full
   root-to-binding path. Everything recorded is simulated and
   deterministic (Simclock microseconds and server read counters, no
   wall clock). The summary pins the claim directly: the ratio of the
   slowest to the fastest log-index lookup across two decades of
   growth ([log_lookup_spread]) must stay under 2, while the B-tree's
   per-lookup reads grow with depth. *)

let index_klen = 8
let index_log_pages = 256
let index_btree_cap = 16
let index_lookup_count = 200
let index_scales_log = [ 10_000; 100_000; 1_000_000 ]
let index_scales_btree = [ 10_000; 100_000 ]

(* One measured build+probe: [insert] and [lookup] close over whichever
   index is under test. Inserts run in committed batches with a
   checkpoint after each, so the in-memory WAL stays bounded at the
   10^6 scale. [settle] runs once between the insert and lookup
   phases, in its own committed transaction and outside both timed
   windows — the log index uses it to fold its tail so every scale
   probes the steady state the background merge maintains. *)
let index_measure ?settle ~server ~client ~n ~insert ~lookup () =
  let clock = Esm.Server.clock server in
  let rng = Qs_util.Rng.create (0x1dc5 + n) in
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Qs_util.Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let batch = 500 in
  let t0 = Simclock.Clock.total_us clock in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + batch) in
    Esm.Client.begin_txn client;
    while !i < stop do
      insert order.(!i);
      incr i
    done;
    Esm.Client.commit client;
    Esm.Server.checkpoint server
  done;
  let insert_us = (Simclock.Clock.total_us clock -. t0) /. float_of_int n in
  (match settle with
   | None -> ()
   | Some f ->
     Esm.Client.begin_txn client;
     f ();
     Esm.Client.commit client;
     Esm.Server.checkpoint server);
  let c0 = (Esm.Server.counters server).Esm.Server.client_reads in
  let t1 = Simclock.Clock.total_us clock in
  for _ = 1 to index_lookup_count do
    Esm.Client.reset_cache client;
    Esm.Client.begin_txn client;
    let key = Qs_util.Rng.int rng n in
    if not (lookup key) then
      invalid_arg (Printf.sprintf "index bench: binding %d of %d missing" key n);
    Esm.Client.commit client
  done;
  let lookup_us = (Simclock.Clock.total_us clock -. t1) /. float_of_int index_lookup_count in
  let reads = (Esm.Server.counters server).Esm.Server.client_reads - c0 in
  (insert_us, lookup_us, float_of_int reads /. float_of_int index_lookup_count)

let index_oid i = Esm.Oid.make ~page:(1 + (i / 8)) ~slot:(i mod 8) ~unique:i ()

let index_runs ~progress =
  let ikey = Esm.Btree.key_of_int ~klen:index_klen in
  let fresh () =
    let server =
      Esm.Server.create ~frames:512 ~clock:(Simclock.Clock.create ())
        ~cm:Simclock.Cost_model.default ()
    in
    (server, Esm.Client.create ~frames:1536 server)
  in
  let log_run n =
    progress (Printf.sprintf "building log index with %d bindings..." n);
    let server, client = fresh () in
    Esm.Client.begin_txn client;
    let idx = Esm.Log_index.create ~log_pages:index_log_pages client ~klen:index_klen in
    Esm.Client.commit client;
    let insert i = Esm.Log_index.insert idx ~key:(ikey i) ~oid:(index_oid i) in
    let lookup i = Esm.Log_index.lookup idx ~key:(ikey i) <> None in
    let insert_us, lookup_us, lookup_reads =
      index_measure ~server ~client ~n ~insert ~lookup
        ~settle:(fun () -> Esm.Log_index.merge ~force:true idx) ()
    in
    Esm.Client.begin_txn client;
    let st = Esm.Log_index.stats idx in
    Esm.Client.commit client;
    { ir_system = "log"
    ; ir_n = n
    ; ir_insert_us = insert_us
    ; ir_lookup_us = lookup_us
    ; ir_lookup_reads = lookup_reads
    ; ir_generation = st.Esm.Log_index.generation
    ; ir_log_len = st.Esm.Log_index.log_len }
  in
  let btree_run n =
    progress (Printf.sprintf "building b-tree with %d bindings..." n);
    let server, client = fresh () in
    Esm.Btree.install_undo_handler client;
    Esm.Client.begin_txn client;
    let bt = Esm.Btree.create ~cap:index_btree_cap client ~klen:index_klen in
    Esm.Client.commit client;
    let insert i = Esm.Btree.insert bt ~key:(ikey i) ~oid:(index_oid i) in
    let lookup i = Esm.Btree.lookup_all bt ~key:(ikey i) <> [] in
    let insert_us, lookup_us, lookup_reads =
      index_measure ~server ~client ~n ~insert ~lookup ()
    in
    { ir_system = "btree"
    ; ir_n = n
    ; ir_insert_us = insert_us
    ; ir_lookup_us = lookup_us
    ; ir_lookup_reads = lookup_reads
    ; ir_generation = 0
    ; ir_log_len = 0 }
  in
  (* Bound first: [@] evaluates its right operand first. *)
  let logs = List.map log_run index_scales_log in
  logs @ List.map btree_run index_scales_btree

type cell = Text of string | Int of int | Num of float

(* An index run's fields: JSON key, bench column heading, value. *)
let index_fields =
  [ ("system", "system", fun r -> Text r.ir_system)
  ; ("n", "bindings", fun r -> Int r.ir_n)
  ; ("insert_us", "insert us", fun r -> Num r.ir_insert_us)
  ; ("lookup_us", "lookup us", fun r -> Num r.ir_lookup_us)
  ; ("lookup_reads", "reads/lookup", fun r -> Num r.ir_lookup_reads)
  ; ("generation", "merges", fun r -> Int r.ir_generation)
  ; ("log_len", "log tail", fun r -> Int r.ir_log_len) ]

let index_table runs =
  let text = function Text s -> s | Int i -> string_of_int i | Num x -> Report.f1 x in
  ( List.map (fun (_, h, _) -> h) index_fields
  , List.map (fun r -> List.map (fun (_, _, v) -> text (v r)) index_fields) runs )

let log_spread sel runs =
  match List.filter_map (fun r -> if r.ir_system = "log" then Some (sel r) else None) runs with
  | [] -> None
  | v :: _ as vs ->
    let lo = List.fold_left Float.min v vs and hi = List.fold_left Float.max v vs in
    Some (lo, hi, hi /. lo)

let render_index ~seed runs =
  let spread sel = match log_spread sel runs with Some (_, _, s) -> s | None -> 0.0 in
  let lookup = spread (fun r -> r.ir_lookup_us) in
  let cell = function Text s -> json_string s | Int i -> string_of_int i | Num x -> json_float x in
  let run_json r = json_object (List.map (fun (k, _, v) -> field k (cell (v r))) index_fields) in
  Printf.sprintf
    "{\"benchmark\":%s,\"seed\":%d,\"klen\":%d,\"log_pages\":%d,\"btree_cap\":%d,\"lookups\":%d,%s,\"runs\":[%s]}\n"
    (json_string "index") seed index_klen index_log_pages index_btree_cap index_lookup_count
    (String.concat ","
       [ field "log_lookup_spread" (json_float lookup)
       ; field "log_lookup_reads_spread" (json_float (spread (fun r -> r.ir_lookup_reads)))
       ; field "log_lookup_flat_2x" (string_of_bool (lookup < 2.0)) ])
    (String.concat "," (List.map run_json runs))

(* ------------------------------------------------------------------ *)
(* The table.                                                          *)

let baselines =
  [ (* The paper's comparison: QS, E and QS-B on every small op. *)
    oo7 ~file:"BENCH_oo7.json" ~title:"Small database" ~benchmark:"OO7"
      ~building:"QS, E, QS-B" ~label:"small"
      ~systems:
        [ qs Qs_config.default
        ; e
        ; qs { Qs_config.default with Qs_config.mode = Qs_config.Big_objects } ]
      ~ops:(Exp.traversal_ops @ Exp.query_ops @ Exp.update_ops)
      ~hot_reps:3 ()
  ; (* QS with fault-time page-run prefetch plus WAL group commit
       against a stock E control, traversals and updates only (queries
       are index-driven and gain nothing from run prefetch), hot_reps 1
       — hot passes fault nothing, so one rep pins their shape. E runs
       untouched: prefetch lives in QuickStore's fault handler and
       group commit is enabled per-store, so any drift in E's numbers
       between the two baselines is a bug. *)
    oo7 ~file:"BENCH_oo7_prefetch.json"
      ~title:"Batched I/O (fault-time page-run prefetch + WAL group commit)"
      ~benchmark:"OO7+prefetch" ~building:"QS+prefetch, E control" ~label:"prefetch"
      ~systems:
        [ qs
            { Qs_config.default with
              Qs_config.prefetch_run_max = 8
            ; Qs_config.group_commit = true }
        ; e ]
      ~ops:(Exp.traversal_ops @ Exp.update_ops) ~hot_reps:1 ()
  ; (* QS with the diff-shipping commit (modified byte regions,
       pipelined with the WAL force) against a stock E control. T1
       rides along as a read-mostly control (its only commit traffic
       is mapping maintenance); E runs untouched, so its cold T1 here
       must stay bit-identical to the small-database baseline. *)
    oo7 ~extra:diffship_extra ~file:"BENCH_oo7_diffship.json"
      ~title:"Diff shipping (commit ships modified byte regions, pipelined with the WAL force)"
      ~benchmark:"OO7+diffship" ~building:"QS+diffship, E control" ~label:"diff-ship"
      ~systems:[ qs { Qs_config.default with Qs_config.diff_ship = true }; e ]
      ~ops:("T1" :: Exp.update_ops) ~hot_reps:1 ()
  ; (* 1, 2 and 4 simulated clients under the deterministic scheduler.
       The trace digest pins the interleaving itself, not just the
       totals. *)
    mc ~file:"BENCH_oo7_multi.json"
      ~title:"Multi-user contention (deterministic scheduler, hot-page skew)"
      ~benchmark:"OO7-multi"
      ~fields:
        [ "clients"; "txns_per_client"; "committed"; "deadlock_retries"; "lock_waits"
        ; "lock_wait_ms"; "retry_ms"; "total_ms"; "reads"; "writes"; "per_client"
        ; "trace_events"; "trace_digest" ]
      (fun ~progress ~seed ->
        List.map
          (fun clients ->
            progress (Printf.sprintf "running multi-user contention with %d client(s)..." clients);
            Mc.run ~clients ~seed ())
          [ 1; 2; 4 ])
  ; (* 4 clients under reset-per-transaction, then callback locking:
       what inter-transaction caching buys (retained hits, server page
       reads avoided and the bytes they would have shipped) against
       what it costs (recall traffic). *)
    mc ~file:"BENCH_oo7_callback.json"
      ~title:"Callback locking (inter-transaction caching vs reset-per-txn)"
      ~benchmark:"OO7-callback"
      ~mode:(fun s -> if s.Mc.callbacks then "callback" else "reset")
      ~fields:
        [ "clients"; "committed"; "deadlock_retries"; "reads"; "writes"; "retained_hits"
        ; "callbacks_sent"; "callbacks_deferred"; "gc_rides"; "gc_cross_rides"; "total_ms"
        ; "trace_digest" ]
      ~summary:(fun runs ->
        let off, on = both_regimes "callback" runs in
        let saved = off.Mc.reads - on.Mc.reads in
        [ field "reads_saved" (string_of_int saved)
        ; field "read_bytes_saved" (string_of_int (saved * Esm.Page.page_size))
        ; field "retained_hit_rate"
            (json_float
               (float_of_int on.Mc.retained_hits
               /. float_of_int (on.Mc.retained_hits + on.Mc.reads))) ])
      (fun ~progress ~seed ->
        List.map
          (fun callbacks ->
            progress
              (Printf.sprintf "running 4-client contention, callback locking %s..."
                 (if callbacks then "on" else "off"));
            Mc.run ~clients:4 ~seed ~callbacks ())
          [ false; true ])
  ; (* 4 clients at read_pct 80 under locking scans, then MVCC snapshot
       bodies: reader lock waits and deadlock retries collapse, while
       equal world digests prove the writers' committed effects are
       byte-identical in both regimes (the rng draws are identical and
       the write partitions disjoint, so a divergence is a bug). *)
    mc ~file:"BENCH_oo7_snapshot.json"
      ~title:"Snapshot reads (MVCC version chains vs locking scans, read_pct 80)"
      ~benchmark:"OO7-snapshot"
      ~mode:(fun s -> if s.Mc.snapshot then "snapshot" else "locking")
      ~fields:
        [ "clients"; "read_pct"; "committed"; "read_txns"; "deadlock_retries"; "lock_waits"
        ; "lock_wait_ms"; "retry_ms"; "reads"; "writes"; "snapshot_reads"; "snapshot_deltas"
        ; "snapshot_retries"; "total_ms"; "world_digest"; "trace_digest" ]
      ~summary:(fun runs ->
        let locking, snap = both_regimes "snapshot" runs in
        let waits = float_of_int locking.Mc.lock_waits in
        [ field "lock_waits_locking" (string_of_int locking.Mc.lock_waits)
        ; field "lock_waits_snapshot" (string_of_int snap.Mc.lock_waits)
        ; field "lock_wait_reduction"
            (json_float
               (if snap.Mc.lock_waits = 0 then waits
                else waits /. float_of_int snap.Mc.lock_waits))
        ; field "deadlock_retries_locking" (string_of_int locking.Mc.deadlock_retries)
        ; field "deadlock_retries_snapshot" (string_of_int snap.Mc.deadlock_retries)
        ; field "world_digest_equal"
            (string_of_bool (String.equal locking.Mc.world_digest snap.Mc.world_digest)) ])
      (fun ~progress ~seed ->
        List.map
          (fun snapshot ->
            progress
              (Printf.sprintf "running 4-client read-heavy contention (read_pct 80), %s scans..."
                 (if snapshot then "snapshot" else "locking"));
            Mc.run ~clients:4 ~seed ~read_pct:80 ~snapshot ())
          [ false; true ])
  ; { file = "BENCH_index.json"
    ; title = "Log-structured index (flat lookup vs B-tree depth)"
    ; run =
        (fun ~progress ~seed ->
          let runs = index_runs ~progress in
          (Index_runs runs, render_index ~seed runs)) } ]
