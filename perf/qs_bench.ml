(* qs_bench: the end-to-end benchmark. One closed-loop workload per
   process, on one domain, with [Qs_config.default] (the paper's
   measured configuration). Every layer is measured from outside: host
   time around the public calls the benchmark makes, simulated time and
   counts from the clock snapshots and counters the layers expose.

     qs_bench --workload t1-small --seed 7 [--seconds 12] [--trace 0|1]
              [--scale full|smoke] [--sim-out FILE] [--sim-equal FILE]

   Output: a host fingerprint line, one [workload metric value unit]
   line per metric, and, last, one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. The exit code is 1
   when any correctness check fails. See perf/README.md. *)

module Clock = Simclock.Clock
module Cat = Simclock.Category
module Sys_ = Harness.System
module QS = Quickstore.Store
module Params = Oo7.Params
module Server = Esm.Server
module TQ = Timed.Make (QS)
module TSys = Sys_.Of_store (TQ)

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1234
let seconds = ref 12
let trace = ref 0
let smoke = ref false
let sim_out = ref ""
let sim_equal = ref ""

let () =
  let usage = "qs_bench --workload t1-small|update-small|t1-medium|mc-4c [options]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run")
    ; ("--seed", Arg.Set_int seed, "N seed for the database build and every operation (default 1234)")
    ; ("--seconds", Arg.Set_int seconds, "N run length: the transaction count is N times the workload's rate")
    ; ("--trace", Arg.Set_int trace, "0|1 1 adds a traced rerun and reports the per-layer metrics")
    ; ("--scale", Arg.Symbol ([ "full"; "smoke" ], fun s -> smoke := s = "smoke"), " smoke: one op pattern, at least 2 transactions (rounds)")
    ; ("--sim-out", Arg.Set_string sim_out, "FILE write the simulated metrics to FILE")
    ; ("--sim-equal", Arg.Set_string sim_equal, "FILE check the simulated metrics equal FILE's (a --sim-out)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end

let traced_run = !trace = 1

(* ---- workloads ---- *)

type spec = {
  params : Params.t option;  (** [None]: the multi-client harness *)
  ops : string array;  (** transaction i runs [ops.(i mod length)] *)
  per_s : float;  (** transactions (mc-4c: rounds) per second of [--seconds] *)
  block : int;  (** transactions (rounds) per block of the blocked medians *)
  builds : int;  (** set-ups timed per run; [setup_s] is their median *)
  checkpoint_every : int;  (** [Server.checkpoint] after every k-th transaction; 0 = never *)
}

(* [per_s] was calibrated so a run measures about [--seconds] seconds on
   the reference host (README); it is a constant, so a faster program
   does the same work in less time. An update-small block is one
   checkpoint cycle of four T2B, T2B, T3A patterns. *)
let spec =
  match !workload with
  | "t1-small" ->
    { params = Some Params.small; ops = [| "T1" |]; per_s = 40.0; block = 20; builds = 3; checkpoint_every = 0 }
  | "update-small" ->
    { params = Some Params.small; ops = [| "T2B"; "T2B"; "T3A" |]; per_s = 12.0; block = 12; builds = 3
    ; checkpoint_every = 12 }
  | "t1-medium" ->
    { params = Some Params.medium; ops = [| "T1" |]; per_s = 3.0; block = 3; builds = 1; checkpoint_every = 0 }
  | "mc-4c" -> { params = None; ops = [||]; per_s = 3.0; block = 5; builds = 200; checkpoint_every = 0 }
  | w ->
    Printf.eprintf "qs_bench: unknown workload %S\n" w;
    exit 2

let mc_clients = 4
let mc_txns_per_client = 250

(* Transactions (mc-4c: rounds) in the measured window: whole blocks,
   or, at smoke scale, one op pattern (at least two). *)
let count =
  if !smoke then max 2 (Array.length spec.ops)
  else
    let n = int_of_float (Float.ceil (float_of_int !seconds *. spec.per_s)) in
    spec.block * ((n + spec.block - 1) / spec.block)

(* ---- host measurement ---- *)

let now () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

let proc_field path key =
  try
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = key ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> go ()
        in
        go ())
  with Sys_error _ -> None

let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (try Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0) with _ -> 0.0)
  | None -> 0.0

(* ---- correctness checks (all outside the timed windows) ---- *)

let failures = ref []

let check what ok =
  if not ok then begin
    failures := what :: !failures;
    Printf.eprintf "qs_bench: CHECK FAILED: %s\n%!" what
  end

(* The OO7 traversals visit every atomic part of every composite part
   reached from every base assembly. *)
let expected_result p = Params.num_base_assemblies p * p.Params.num_comp_per_assm * p.Params.num_atomic_per_comp

(* The QS T1 entry of the committed BENCH_oo7.json (seed 1234): cold
   simulated ms, client reads and faults. *)
let bench_oo7_t1 () =
  let s = In_channel.with_open_text "BENCH_oo7.json" In_channel.input_all in
  let find from sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then raise Not_found
      else if String.sub s i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let t1 = find (find 0 "{\"name\":\"QS\"") "{\"op\":\"T1\"" in
  let field name =
    let i = find t1 (Printf.sprintf "\"%s\":" name) + String.length name + 3 in
    let j = ref i in
    while !j < String.length s && s.[!j] <> ',' && s.[!j] <> '}' do
      incr j
    done;
    String.sub s i (!j - i)
  in
  (float_of_string (field "cold_ms"), int_of_string (field "reads"), int_of_string (field "faults"))

(* ---- metrics ---- *)

type kind =
  | Sim  (** simulated or counted by the layers: deterministic per seed *)
  | Host  (** host time from the untraced run *)
  | Traced  (** from the traced run's spans and call counts *)

(* Per-layer metrics: name, unit, kind. A layer the workload does not
   reach reads 0 (README: which metric should move which). *)
let per_layer =
  [ ("vmsim.faults_per_txn", "count", Sim); ("vmsim.mmap_calls_per_txn", "count", Sim)
  ; ("vmsim.sim_ms_per_txn", "sim_ms", Sim); ("vmsim.hot_op_p50_ms", "ms", Host)
  ; ("vmsim.hot_ns_per_read", "ns", Traced); ("store.hard_faults_per_txn", "count", Sim)
  ; ("store.swizzle_ms_per_txn", "sim_ms", Sim); ("store.fault_misc_ms_per_txn", "sim_ms", Sim)
  ; ("store.map_reads_per_txn", "count", Sim); ("store.cold_faults_per_txn", "count", Sim)
  ; ("store.read_calls_per_txn", "count", Traced)
  ; ("store.fault_host_us", "us", Traced); ("rec_buffer.write_faults_per_txn", "count", Sim)
  ; ("rec_buffer.copy_ms_per_txn", "sim_ms", Sim); ("rec_buffer.diff_ms_per_txn", "sim_ms", Sim)
  ; ("rec_buffer.pages_diffed_per_txn", "count", Sim); ("rec_buffer.write_host_us", "us", Traced)
  ; ("wal.update_bytes_per_txn", "B", Sim); ("wal.records_per_txn", "count", Sim)
  ; ("wal.log_write_ms_per_txn", "sim_ms", Sim); ("commit.host_ms_p50", "ms", Traced)
  ; ("commit.sim_ms_per_txn", "sim_ms", Sim); ("commit.flush_ms_per_txn", "sim_ms", Sim)
  ; ("commit.map_update_ms_per_txn", "sim_ms", Sim); ("commit.pages_shipped_per_txn", "count", Sim)
  ; ("btree.insert_host_us", "us", Traced); ("btree.delete_host_us", "us", Traced)
  ; ("btree.lookup_host_us", "us", Traced); ("btree.calls_per_txn", "count", Traced)
  ; ("btree.index_reads_per_txn", "count", Sim); ("btree.index_op_ms_per_txn", "sim_ms", Sim)
  ; ("btree.build_share", "ratio", Traced); ("client.reads_per_txn", "count", Sim)
  ; ("client.hot_reads_per_txn", "count", Sim); ("client.data_io_ms_per_txn", "sim_ms", Sim)
  ; ("client.reset_host_us", "us", Traced); ("server.pool_hit_rate", "ratio", Sim)
  ; ("server.checkpoint_host_ms", "ms", Host); ("disk.reads_per_txn", "count", Sim)
  ; ("disk.writes_per_txn", "count", Sim); ("disk.db_mb", "MB", Sim)
  ; ("lock_mgr.acquire_ms_per_txn", "sim_ms", Sim); ("lock_mgr.waits_per_txn", "count", Sim)
  ; ("lock_mgr.wait_ms_per_txn", "sim_ms", Sim); ("lock_mgr.wait_share", "ratio", Sim)
  ; ("lock_mgr.retries_per_txn", "count", Sim); ("sched.retry_ms_per_txn", "sim_ms", Sim)
  ; ("sched.host_us_per_txn", "us", Host); ("oo7.app_ms_per_txn", "sim_ms", Sim)
  ; ("oo7.self_host_ms_per_txn", "ms", Traced); ("trace.overhead", "ratio", Traced) ]

let kind_of k = List.find_map (fun (k', _, kind) -> if k = k' then Some kind else None) per_layer

type sample = {
  lat_ms : float;  (** host ms per transaction (mc-4c: the round's, per transaction) *)
  t_end : int64;  (** host time the transaction (round) returned *)
  txns : int;  (** transactions it committed *)
}

(* One measured window: what the end-to-end and per-layer metrics are
   computed from. [values] holds every Sim and Host per-layer metric
   plus [sim_txn_ms]. *)
type window = {
  attempted : int;
  committed : int;
  t_start : int64;
  samples : sample list;  (** newest first *)
  values : (string * float) list;
}

(* The host-time end-to-end metrics: the window is cut into blocks of
   [spec.block] consecutive samples, each block yields a throughput (its
   transactions over the host time since the previous block ended,
   checkpoints included), a median and a p90 latency, and each metric is
   the best block's value. On a shared host, interference only adds
   time, in bursts of seconds: the fastest block is the one it touched
   least. *)
let blocked w =
  let a = Array.of_list (List.rev w.samples) in
  let size = min spec.block (Array.length a) in
  let nb = if size = 0 then 0 else Array.length a / size in
  let blocks =
    List.init nb (fun b ->
        let s = Array.sub a (b * size) size in
        let t0 = if b = 0 then w.t_start else a.((b * size) - 1).t_end in
        let secs = Int64.to_float (Int64.sub s.(size - 1).t_end t0) /. 1e9 in
        let lat = Array.to_list (Array.map (fun x -> x.lat_ms) s) in
        ( float_of_int (Array.fold_left (fun n x -> n + x.txns) 0 s) /. secs
        , percentile 0.5 lat
        , percentile 0.9 lat ))
  in
  let best f pick = List.fold_left (fun acc b -> pick acc (f b)) (f (List.hd blocks)) blocks in
  (best (fun (t, _, _) -> t) Float.max, best (fun (_, p, _) -> p) Float.min, best (fun (_, _, p) -> p) Float.min)

let txn_per_s w =
  let t, _, _ = blocked w in
  t

(* Named sums over a window, plus per-category simulated time. *)
module Acc = struct
  type t = { sums : (string, float) Hashtbl.t; cat_us : float array; cat_ev : int array }

  let create () = { sums = Hashtbl.create 32; cat_us = Array.make Cat.count 0.0; cat_ev = Array.make Cat.count 0 }
  let get t k = Option.value (Hashtbl.find_opt t.sums k) ~default:0.0
  let add t k v = Hashtbl.replace t.sums k (get t k +. v)
  let addi t k v = add t k (float_of_int v)

  let add_snapshot t s =
    List.iter
      (fun c ->
        let i = Cat.index c in
        t.cat_us.(i) <- t.cat_us.(i) +. Clock.snap_category_us s c;
        t.cat_ev.(i) <- t.cat_ev.(i) + Clock.snap_category_events s c)
      Cat.all

  let ms t cats = List.fold_left (fun a c -> a +. t.cat_us.(Cat.index c)) 0.0 cats /. 1000.0
  let events t c = float_of_int t.cat_ev.(Cat.index c)
end

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- the OO7 workloads ---- *)

type qs_system = {
  sys : Sys_.t;
  st : QS.t;
  cold_end : int64 ref;  (** host time when the cold phase ended *)
  post_phase : string ref;  (** traced span name for what follows the cold phase *)
}

(* Builds the database as [Sys_.make_qs] does. The [faults] callback,
   which [Sys_.run] calls exactly between the cold phase and the
   hot/commit phase, stamps the host clock there. *)
let make_system ~traced params ~seed =
  let server = Sys_.fresh_server () in
  let st = QS.create_db ~config:Quickstore.Qs_config.default server in
  let cold_end = ref 0L and post_phase = ref "" in
  let faults () =
    cold_end := now ();
    if traced then begin
      Timed.close_span ();
      Timed.open_span ~layer:"oo7" !post_phase
    end;
    (QS.stats st).QS.hard_faults
  in
  let reset_faults () = QS.reset_stats st in
  let sys =
    if traced then begin
      let module W = Oo7.Workload.Make (TQ) in
      Timed.with_span ~layer:"oo7" "build" (fun () -> ignore (W.build st params ~seed));
      TSys.make st params ~faults ~reset_faults
    end
    else begin
      let module W = Oo7.Workload.Make (QS) in
      ignore (W.build st params ~seed);
      Sys_.Qs.make st params ~faults ~reset_faults
    end
  in
  { sys; st; cold_end; post_phase }

let run_oo7 ~traced ~first_check (q : qs_system) params =
  let expected = expected_result params in
  let server = q.sys.Sys_.server in
  let disk = Server.disk server and wal = Server.wal server in
  let clock = QS.clock q.st in
  let acc = Acc.create () in
  let samples = ref [] and hot = ref [] and ckpt = ref [] in
  let failed = ref 0 in
  let t_start = now () in
  for i = 0 to count - 1 do
    let op = spec.ops.(i mod Array.length spec.ops) in
    let read_only = op = "T1" in
    q.post_phase := if read_only then "hot" else "commit";
    let snap = Clock.snapshot clock in
    let disk_r = Esm.Disk.reads disk and disk_w = Esm.Disk.writes disk in
    let wal_b = Esm.Wal.update_bytes wal and wal_lsn = Esm.Wal.last_lsn wal in
    if traced then begin
      Timed.open_span ~layer:"oo7" ("txn:" ^ op);
      Timed.open_span ~layer:"oo7" "cold"
    end;
    let t0 = now () in
    (match q.sys.Sys_.run ~op ~seed:(!seed + i) ~hot_reps:(if read_only then 1 else 0) with
     | r ->
       let t1 = now () in
       if traced then begin
         Timed.close_span ();
         Timed.close_span ()
       end;
       let hot_result = Option.map (fun (h : Harness.Measure.t) -> h.result) r.Sys_.hot in
       let ok =
         r.Sys_.cold.Harness.Measure.result = expected
         && ((not read_only) || hot_result = Some r.Sys_.cold.Harness.Measure.result)
       in
       check (Printf.sprintf "%s transaction %d returns %d, hot pass equal" op i expected) ok;
       if not ok then incr failed;
       if i = 0 then first_check r;
       samples := { lat_ms = ms_between t0 t1; t_end = t1; txns = (if ok then 1 else 0) } :: !samples;
       if read_only then hot := ms_between !(q.cold_end) t1 :: !hot;
       let s = Clock.since clock snap in
       Acc.add_snapshot acc s;
       Acc.add acc "sim_ms" (Clock.snap_total_ms s);
       Acc.add acc "cold_ms" r.Sys_.cold.Harness.Measure.ms;
       Option.iter (fun (h : Harness.Measure.t) -> Acc.add acc "hot_ms" h.ms; Acc.addi acc "hot_reads" h.client_reads)
         r.Sys_.hot;
       (* [Sys_.run] resets the server counters and store stats first,
          so after it they hold this transaction's counts. *)
       let c = Server.counters server and qs = QS.stats q.st in
       Acc.addi acc "client_reads" c.Server.client_reads;
       Acc.addi acc "reads_map" c.Server.client_reads_map;
       Acc.addi acc "reads_index" c.Server.client_reads_index;
       Acc.addi acc "client_writes" c.Server.client_writes;
       Acc.addi acc "pool_hits" c.Server.server_pool_hits;
       Acc.addi acc "hard_faults" qs.QS.hard_faults;
       Acc.addi acc "cold_faults" r.Sys_.cold_faults;
       Acc.addi acc "write_faults" qs.QS.write_faults;
       Acc.addi acc "pages_diffed" qs.QS.pages_diffed;
       Acc.addi acc "disk_reads" (Esm.Disk.reads disk - disk_r);
       Acc.addi acc "disk_writes" (Esm.Disk.writes disk - disk_w);
       Acc.addi acc "wal_bytes" (Esm.Wal.update_bytes wal - wal_b);
       Acc.add acc "wal_records" (Int64.to_float (Int64.sub (Esm.Wal.last_lsn wal) wal_lsn))
     | exception e ->
       let t1 = now () in
       if traced then Timed.unwind ();
       check (Printf.sprintf "%s transaction %d raised %s" op i (Printexc.to_string e)) false;
       samples := { lat_ms = ms_between t0 t1; t_end = t1; txns = 0 } :: !samples;
       incr failed;
       if QS.in_txn q.st then (try QS.abort q.st with _ -> ()));
    if spec.checkpoint_every > 0 && (i + 1) mod spec.checkpoint_every = 0 then begin
      let c0 = now () in
      if traced then Timed.with_span ~layer:"server" "checkpoint" (fun () -> Server.checkpoint server)
      else Server.checkpoint server;
      ckpt := ms_between c0 (now ()) :: !ckpt
    end
  done;
  let committed = count - !failed in
  let n = float_of_int (max 1 committed) in
  let get = Acc.get acc in
  let per k = get k /. n in
  let ms cats = Acc.ms acc cats /. n in
  let values =
    [ ("sim_txn_ms", per "sim_ms")
    ; ("vmsim.faults_per_txn", Acc.events acc Cat.Page_fault /. n)
    ; ("vmsim.mmap_calls_per_txn", Acc.events acc Cat.Mmap_call /. n)
    ; ("vmsim.sim_ms_per_txn", ms [ Cat.Page_fault; Cat.Min_fault; Cat.Mmap_call ])
    ; ("vmsim.hot_op_p50_ms", median !hot)
    ; ("store.hard_faults_per_txn", per "hard_faults")
    ; ("store.swizzle_ms_per_txn", ms [ Cat.Swizzle ])
    ; ("store.fault_misc_ms_per_txn", ms [ Cat.Fault_misc ])
    ; ("store.map_reads_per_txn", per "reads_map")
    ; ("store.cold_faults_per_txn", per "cold_faults")
    ; ("rec_buffer.write_faults_per_txn", per "write_faults")
    ; ("rec_buffer.copy_ms_per_txn", ms [ Cat.Write_fault_copy ])
    ; ("rec_buffer.diff_ms_per_txn", ms [ Cat.Diff ])
    ; ("rec_buffer.pages_diffed_per_txn", per "pages_diffed")
    ; ("wal.update_bytes_per_txn", per "wal_bytes")
    ; ("wal.records_per_txn", per "wal_records")
    ; ("wal.log_write_ms_per_txn", ms [ Cat.Log_write ])
    ; ("commit.sim_ms_per_txn", (get "sim_ms" -. get "cold_ms" -. get "hot_ms") /. n)
    ; ("commit.flush_ms_per_txn", ms [ Cat.Commit_flush ])
    ; ("commit.map_update_ms_per_txn", ms [ Cat.Map_update ])
    ; ("commit.pages_shipped_per_txn", per "client_writes")
    ; ("btree.index_reads_per_txn", per "reads_index")
    ; ("btree.index_op_ms_per_txn", ms [ Cat.Index_op ])
    ; ("client.reads_per_txn", per "client_reads")
    ; ("client.hot_reads_per_txn", per "hot_reads")
    ; ("client.data_io_ms_per_txn", ms [ Cat.Data_io ])
    ; ("server.pool_hit_rate", ratio (get "pool_hits") (get "client_reads"))
    ; ("server.checkpoint_host_ms", median !ckpt)
    ; ("disk.reads_per_txn", per "disk_reads")
    ; ("disk.writes_per_txn", per "disk_writes")
    ; ("disk.db_mb", q.sys.Sys_.db_size_mb ())
    ; ("lock_mgr.acquire_ms_per_txn", ms [ Cat.Lock_acquire ])
    ; ("lock_mgr.waits_per_txn", Acc.events acc Cat.Lock_wait /. n)
    ; ("lock_mgr.wait_ms_per_txn", ms [ Cat.Lock_wait ])
    ; ("lock_mgr.wait_share", ratio (Acc.ms acc [ Cat.Lock_wait ]) (get "sim_ms"))
    ; ("sched.retry_ms_per_txn", ms [ Cat.Retry ])
    ; ("oo7.app_ms_per_txn", ms [ Cat.App_malloc; Cat.App_set; Cat.App_traverse; Cat.App_deref; Cat.App_work ])
    ]
  in
  { attempted = count; committed; t_start; samples = !samples; values }

(* Builds [spec.builds] databases, timing each, and keeps the last. *)
let setup_oo7 ~traced ~builds params =
  let times = ref [] and last = ref None in
  for _ = 1 to builds do
    let t0 = now () in
    last := Some (make_system ~traced params ~seed:!seed);
    times := (ms_between t0 (now ()) /. 1000.0) :: !times
  done;
  (Option.get !last, median !times)

(* First-transaction check against the committed baseline: at seed
   1234 the first t1-small cold pass must cost exactly what
   BENCH_oo7.json records for QS T1. *)
let first_check (r : Sys_.run_result) =
  if !workload = "t1-small" && !seed = 1234 then
    match bench_oo7_t1 () with
    | ms, reads, faults ->
      check "first cold T1 equals BENCH_oo7.json (QS, T1: cold_ms, reads, faults)"
        (Float.equal r.Sys_.cold.Harness.Measure.ms ms
        && r.Sys_.cold.Harness.Measure.client_reads = reads
        && r.Sys_.cold_faults = faults)
    | exception (Sys_error _ | Not_found | Failure _) ->
      check "BENCH_oo7.json readable in the working directory" false

(* After the update window: a fresh QSan-armed client on the same
   database must run a cold T1 without a violation, with the same
   result. *)
let sanitize_check (q : qs_system) params =
  let config = { Quickstore.Qs_config.default with Quickstore.Qs_config.sanitize = true } in
  match Sys_.reattach_qs ~config q.sys params with
  | sys ->
    (match sys.Sys_.run ~op:"T1" ~seed:!seed ~hot_reps:0 with
     | r -> check "QSan-armed cold T1 after the update window" (r.Sys_.cold.Harness.Measure.result = expected_result params)
     | exception e -> check ("QSan-armed cold T1 after the update window: " ^ Printexc.to_string e) false)
  | exception e -> check ("reattach after the update window: " ^ Printexc.to_string e) false

(* ---- the multi-client workload ---- *)

let mc_round ~seed ~txns =
  Harness.Mc.run ~clients:mc_clients ~txns_per_client:txns ~seed ()

(* Set-up of one round: the harness builds its world and runs an empty
   schedule. *)
let setup_mc ~builds =
  median
    (List.init builds (fun i ->
         let t0 = now () in
         ignore (mc_round ~seed:(!seed + i) ~txns:0);
         ms_between t0 (now ()) /. 1000.0))

let run_mc ~traced ~(reference : Harness.Mc.stats) =
  let acc = Acc.create () in
  let samples = ref [] and failed = ref 0 in
  let per_round = mc_clients * mc_txns_per_client in
  let t_start = now () in
  for r = 0 to count - 1 do
    let t0 = now () in
    let round () = mc_round ~seed:(!seed + r) ~txns:mc_txns_per_client in
    match if traced then Timed.with_span ~layer:"sched" "round" round else round () with
    | s ->
      let t1 = now () in
      let module M = Harness.Mc in
      check (Printf.sprintf "mc round %d commits all %d transactions" r per_round) (s.M.committed = per_round);
      failed := !failed + (per_round - s.M.committed);
      if r = 0 then
        check "mc first round digests equal the pre-window run"
          (s.M.trace_digest = reference.M.trace_digest && s.M.world_digest = reference.M.world_digest);
      samples :=
        { lat_ms = ms_between t0 t1 /. float_of_int (max 1 s.M.committed); t_end = t1; txns = s.M.committed }
        :: !samples;
      Acc.addi acc "committed" s.M.committed;
      Acc.add acc "host_ms" (ms_between t0 t1);
      Acc.add acc "total_ms" s.M.total_ms;
      Acc.addi acc "retries" s.M.deadlock_retries;
      Acc.addi acc "lock_waits" s.M.lock_waits;
      Acc.add acc "lock_wait_ms" s.M.lock_wait_ms;
      Acc.add acc "retry_ms" s.M.retry_ms;
      Acc.addi acc "reads" s.M.reads;
      Acc.addi acc "writes" s.M.writes
    | exception e ->
      let t1 = now () in
      check (Printf.sprintf "mc round %d raised %s" r (Printexc.to_string e)) false;
      samples := { lat_ms = ms_between t0 t1 /. float_of_int per_round; t_end = t1; txns = 0 } :: !samples;
      failed := !failed + per_round
  done;
  let get = Acc.get acc in
  let n = Float.max 1.0 (get "committed") in
  let per k = get k /. n in
  { attempted = count * per_round
  ; committed = int_of_float (get "committed")
  ; t_start
  ; samples = !samples
  ; values =
      [ ("sim_txn_ms", per "total_ms"); ("client.reads_per_txn", per "reads")
      ; ("commit.pages_shipped_per_txn", per "writes"); ("lock_mgr.waits_per_txn", per "lock_waits")
      ; ("lock_mgr.wait_ms_per_txn", per "lock_wait_ms")
      ; ("lock_mgr.wait_share", ratio (get "lock_wait_ms") (get "total_ms"))
      ; ("lock_mgr.retries_per_txn", per "retries"); ("sched.retry_ms_per_txn", per "retry_ms")
      ; ("sched.host_us_per_txn", per "host_ms" *. 1000.0) ] }

(* ---- one run of the workload ---- *)

(* Set-up, untimed checks, then the measured window. Returns the window,
   the median set-up seconds, and the [Timed.mark] at the window start
   (spans before it belong to the set-up). *)
let run_workload ~traced ~builds =
  match spec.params with
  | Some params ->
    let q, setup_s = setup_oo7 ~traced ~builds params in
    Gc.full_major ();
    let mark = Timed.mark () in
    let first_check = if traced then fun _ -> () else first_check in
    let w = run_oo7 ~traced ~first_check q params in
    if !workload = "update-small" && not traced then sanitize_check q params;
    (w, setup_s, mark)
  | None ->
    let setup_s = setup_mc ~builds in
    let reference = mc_round ~seed:!seed ~txns:mc_txns_per_client in
    let again = mc_round ~seed:!seed ~txns:mc_txns_per_client in
    check "mc first round twice: equal trace and world digests"
      (reference.Harness.Mc.trace_digest = again.Harness.Mc.trace_digest
      && reference.Harness.Mc.world_digest = again.Harness.Mc.world_digest);
    Gc.full_major ();
    let mark = Timed.mark () in
    (run_mc ~traced ~reference, setup_s, mark)

(* Per-layer numbers only the traced run has: host time per timed call
   and the read-call counts, from the spans of the measured window. *)
let traced_values ~(w : window) ~(untraced : window) ~build_spans ~spans =
  let n = float_of_int (max 1 w.committed) in
  let us (sum, cnt, _) = if cnt = 0 then 0.0 else Int64.to_float sum /. float_of_int cnt /. 1e3 in
  let self s = Int64.to_float (Int64.sub (Timed.dur s) s.Timed.child_ns) in
  let sum_of f ss = List.fold_left (fun a s -> a +. f s) 0.0 ss in
  let named name = List.filter (fun s -> s.Timed.name = name) spans in
  let txns = List.filter (fun s -> String.length s.Timed.name > 4 && String.sub s.Timed.name 0 4 = "txn:") spans in
  let cold = named "cold" and hot = named "hot" in
  let reads_in ss = sum_of (fun s -> float_of_int (s.Timed.reads1 - s.Timed.reads0)) ss in
  (* Both passes run the same calls, so the cold pass's extra self time
     is the cost of its extra faults (all of them on t1-small; on
     t1-medium the hot pass faults too). *)
  let value k = n *. Option.value (List.assoc_opt k w.values) ~default:0.0 in
  let cold_faults = value "store.cold_faults_per_txn" in
  let extra_faults = cold_faults -. (value "store.hard_faults_per_txn" -. cold_faults) in
  let index_calls =
    List.fold_left
      (fun a k -> let _, c, _ = Timed.folded spans k in a + c)
      0 [ "index_insert"; "index_delete"; "index_lookup"; "index_range" ]
  in
  let build_share =
    match build_spans with
    | [] -> 0.0
    | b :: _ ->
      let sum, _, _ = Timed.folded build_spans "index_insert" in
      ratio (Int64.to_float sum) (Int64.to_float (Timed.dur b))
  in
  let set_calls =
    List.fold_left
      (fun (s, c, m) k ->
        let s', c', m' = Timed.folded spans k in
        (Int64.add s s', c + c', max m m'))
      (0L, 0, 0L) [ "set_int"; "set_ptr"; "set_chars" ]
  in
  let call_ms name = List.map (fun s -> Int64.to_float (Timed.dur s) /. 1e6) (named name) in
  [ ("vmsim.hot_ns_per_read", ratio (sum_of self hot) (reads_in hot))
  ; ("store.read_calls_per_txn", reads_in txns /. n)
  ; ("store.fault_host_us", if hot = [] then 0.0 else ratio ((sum_of self cold -. sum_of self hot) /. 1e3) extra_faults)
  ; ("rec_buffer.write_host_us", us set_calls)
  ; ("commit.host_ms_p50", median (call_ms "commit"))
  ; ("btree.insert_host_us", us (Timed.folded spans "index_insert"))
  ; ("btree.delete_host_us", us (Timed.folded spans "index_delete"))
  ; ("btree.lookup_host_us", us (Timed.folded spans "index_lookup"))
  ; ("btree.calls_per_txn", float_of_int index_calls /. n)
  ; ("btree.build_share", build_share)
  ; ("client.reset_host_us", median (call_ms "reset_caches") *. 1e3)
  ; ("oo7.self_host_ms_per_txn", sum_of (fun s -> Int64.to_float (Int64.sub (Timed.dur s) s.Timed.calls_ns)) txns /. 1e6 /. n)
  ; ("trace.overhead", ratio (txn_per_s untraced) (txn_per_s w)) ]

(* ---- main ---- *)

let () =
  let cpu = Option.value (proc_field "/proc/cpuinfo" "model name") ~default:"unknown" in
  Printf.printf "# host nproc=%d cpu=%S ocaml=%s workload=%s seed=%d scale=%s seconds=%d trace=%d txns=%d\n%!"
    (Domain.recommended_domain_count ()) cpu Sys.ocaml_version !workload !seed (if !smoke then "smoke" else "full") !seconds !trace count;
  (* The end-to-end metrics come from an untraced run; a traced
     process repeats it under the wrapper, so one set-up is enough.
     mc-4c makes no store calls to wrap, and every Harness.Mc.run round
     keeps its trace sink alive, so a rerun would double its memory: its
     traced run is its one window, with a span per round. *)
  let rerun = traced_run && spec.params <> None in
  let first_mark = Timed.mark () in
  let w, setup_s, w_mark =
    run_workload ~traced:(traced_run && not rerun) ~builds:(if traced_run || !smoke then 1 else spec.builds)
  in
  let traced_extra =
    if not traced_run then []
    else begin
      let m, tw, window_mark =
        if rerun then begin
          let m = Timed.mark () in
          let tw, _, window_mark = run_workload ~traced:true ~builds:1 in
          (* The wrapper charges nothing: every simulated number must match. *)
          List.iter
            (fun (k, v) ->
              if kind_of k <> Some Host then
                let v' = List.assoc k tw.values in
                check (Printf.sprintf "traced %s equals untraced (%.17g vs %.17g)" k v' v) (Float.equal v v'))
            w.values;
          (m, tw, window_mark)
        end
        else (first_mark, w, w_mark)
      in
      let build_spans = List.filter (fun s -> s.Timed.id < window_mark && s.Timed.name = "build") (Timed.since m) in
      let path = Printf.sprintf "perf-trace-%s.json" !workload in
      List.iter
        (fun (r : Timed.layer_row) ->
          Printf.printf "# self %-10s calls=%d total_ms=%.3f self_ms=%.3f\n" r.layer r.calls
            (Timed.us r.total_ns /. 1e3) (Timed.us r.self_ns /. 1e3))
        (Timed.write_chrome path (Timed.since m));
      Printf.printf "# trace written to %s\n" path;
      traced_values ~w:tw ~untraced:w ~build_spans ~spans:(Timed.since window_mark)
    end
  in
  let value k =
    match List.assoc_opt k traced_extra with
    | Some v -> v
    | None -> Option.value (List.assoc_opt k w.values) ~default:0.0
  in
  let tput, p50, p90 = blocked w in
  let end_to_end =
    [ ("txn_per_s", tput, "txn/s")
    ; ("txn_p50_ms", p50, "ms")
    ; ("txn_p90_ms", p90, "ms")
    ; ("sim_txn_ms", value "sim_txn_ms", "sim_ms")
    ; ("setup_s", setup_s, "s")
    ; ("peak_rss_mb", peak_rss_mb (), "MB") ]
  in
  let layer = List.map (fun (k, u, _) -> (k, value k, u)) per_layer in
  let print (k, v, u) = Printf.printf "%s %s %.17g %s\n" !workload k v u in
  List.iter print end_to_end;
  List.iter print (List.filter (fun (k, _, _) -> traced_run || kind_of k <> Some Traced) layer);
  let failed = w.attempted - w.committed in
  Printf.printf "%s failed_frac %.17g ratio\n" !workload (float_of_int failed /. float_of_int (max 1 w.attempted));
  let sim =
    String.concat ""
      (List.filter_map
         (fun (k, v) -> if kind_of k = Some Host then None else Some (Printf.sprintf "%s %.17g\n" k v))
         w.values)
  in
  if !sim_out <> "" then Out_channel.with_open_text !sim_out (fun oc -> output_string oc sim);
  if !sim_equal <> "" then
    check ("simulated metrics equal " ^ !sim_equal)
      (try In_channel.with_open_text !sim_equal In_channel.input_all = sim with Sys_error _ -> false);
  let correct = !failures = [] in
  let json_metric (k, v, u) = Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" k v u in
  let metrics = if traced_run then layer else end_to_end in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct w.attempted failed
    (String.concat "," (List.map json_metric metrics));
  if not correct || failed > 0 then exit 1
