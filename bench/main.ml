[@@@qs_lint.allow "QS001"] (* builds synthetic page images for the diffing benchmark *)

(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) from the simulation, then runs one Bechamel
   micro-benchmark per table/figure measuring the real CPU cost of the
   reproduction's corresponding kernel.

   Usage:
     bench/main.exe            full run (small + medium + relocation)
     bench/main.exe quick      small database and relocation only
     bench/main.exe no-bech    skip the Bechamel micro-suite
     bench/main.exe btree      only the B-tree insert/delete kernels
     bench/main.exe --json     also write every BENCH_*.json baseline
                               (one per Harness.Bench_json row)

   Everything printed to stdout is simulated and deterministic: CI
   runs this twice and byte-compares the outputs. Wall-clock chatter
   goes to stderr. *)

module Sys_ = Harness.System
module Exp = Harness.Experiments
module Params = Oo7.Params
module Qs_config = Quickstore.Qs_config

let seed = 1234
let section title = Printf.printf "\n%s\n%s\n\n%!" title (String.make (String.length title) '=')

let medium_ops = [ "T1"; "T6"; "T7"; "T8" ] @ Exp.query_ops @ Exp.update_ops

let build_medium () =
  Printf.printf "building medium databases (QS, E, QS-B)...\n%!";
  let qs = Sys_.make_qs Params.medium ~seed in
  let e = Sys_.make_e Params.medium ~seed in
  let qsb =
    Sys_.make_qs ~config:{ Qs_config.default with Qs_config.mode = Qs_config.Big_objects }
      Params.medium ~seed
  in
  [ qs; e; qsb ]

let validate suites =
  (* The benchmark code is shared; results must agree across systems. *)
  match suites with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun (op, (r : Sys_.run_result)) ->
        List.iter
          (fun s ->
            let r' = Exp.get s op in
            if r'.Sys_.cold.Harness.Measure.result <> r.Sys_.cold.Harness.Measure.result then
              Printf.printf "WARNING: %s disagrees on %s (%d vs %d)\n%!" s.Exp.sys.Sys_.name op
                r'.Sys_.cold.Harness.Measure.result r.Sys_.cold.Harness.Measure.result)
          rest)
      first.Exp.results

let run_phase ~label systems ~ops =
  List.map
    (fun (sys : Sys_.t) ->
      Printf.printf "running %s operations on %s...\n%!" label sys.Sys_.name;
      Exp.run_suite ~seed ~hot_reps:3 sys ~ops)
    systems

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure, measuring the real
   (wall-clock) cost of the reproduction kernel behind it on a tiny
   database. *)

(* The protected no-fault access path of Vmsim — the store's hot loop.
   Pure Vmsim, no database: 64 mapped read-enabled frames swept with
   u32 loads, the shape of a traversal touching already-faulted pages.
   This is the kernel the software TLB and the unsafe access path are
   meant to speed up (EXPERIMENTS.md records before/after). *)
let deref_kernel () =
  let clock = Simclock.Clock.create () in
  let vm = Vmsim.create ~clock ~cm:Simclock.Cost_model.default () in
  let nframes = 64 in
  for f = 0 to nframes - 1 do
    Vmsim.map vm ~frame:f ~buf:(Bytes.make Vmsim.frame_size '\001');
    Vmsim.set_prot vm ~frame:f Vmsim.Prot_read
  done;
  fun () ->
    let acc = ref 0 in
    for f = 0 to nframes - 1 do
      let base = Vmsim.addr_of_frame f in
      for i = 0 to 255 do
        acc := !acc + Vmsim.read_u32 vm (base + (i * 32))
      done
    done;
    ignore (Sys.opaque_identity !acc)

(* B-tree kernels: raw wall-clock per insert and per delete on
   full-capacity klen-8 trees, at scattered positions (the keys are an
   odd-multiplier permutation of a counter, the shape of T3A's
   re-indexing). The delete tree holds 30k bindings, more than the
   Bechamel configuration below can run deletes (at most ~22k runs per
   test), so every measured delete finds its binding. A commit and a
   checkpoint every 4096 runs keep the WAL bounded. *)
let btree_kernels () =
  let server =
    Esm.Server.create ~frames:512 ~clock:(Simclock.Clock.create ()) ~cm:Simclock.Cost_model.default ()
  in
  let client = Esm.Client.create ~frames:1536 server in
  let key i = Esm.Btree.key_of_int ~klen:8 ((i * 40503) land 0xffffff) in
  let oid i = Esm.Oid.make ~page:(1 + (i / 8)) ~slot:(i mod 8) ~unique:i () in
  let insert t i = Esm.Btree.insert t ~key:(key i) ~oid:(oid i) in
  Esm.Client.begin_txn client;
  let ins_t = Esm.Btree.create client ~klen:8 and del_t = Esm.Btree.create client ~klen:8 in
  for i = 0 to 9_999 do
    insert ins_t i
  done;
  for i = 0 to 29_999 do
    insert del_t i
  done;
  let every_4096 n =
    if n land 4095 = 0 then begin
      Esm.Client.commit client;
      Esm.Server.checkpoint server;
      Esm.Client.begin_txn client
    end
  in
  every_4096 0;
  let j = ref 10_000 and d = ref 0 in
  ( (fun () ->
      insert ins_t !j;
      incr j;
      every_4096 !j)
  , fun () ->
      ignore (Esm.Btree.delete del_t ~key:(key !d) ~oid:(oid !d));
      incr d;
      every_4096 !d )

let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"quickstore" tests)
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (v :: _) -> v | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-44s %12.1f ns/run (%.3f ms)\n" name ns (ns /. 1e6))
    (List.sort compare !rows)

let bechamel_suite () =
  let open Bechamel in
  section "Bechamel micro-benchmarks (real wall-clock time of the reproduction kernels)";
  let qs = Sys_.make_qs Params.tiny ~seed in
  let e = Sys_.make_e Params.tiny ~seed in
  let qs_cr =
    Sys_.make_qs ~config:{ Qs_config.default with Qs_config.reloc = Qs_config.Continual 1.0 }
      Params.tiny ~seed
  in
  let cold sys op () = ignore (sys.Sys_.run ~op ~seed ~hot_reps:0) in
  let hot sys op () = ignore (sys.Sys_.run ~op ~seed ~hot_reps:1) in
  let update sys op () =
    ignore (sys.Sys_.run ~op ~seed ~hot_reps:0);
    (* keep the log bounded across iterations *)
    Esm.Server.checkpoint sys.Sys_.server
  in
  (* Log-index kernels: a 10k-binding index built once, then raw
     wall-clock per lookup (fan-out binary search + one page fix) and
     per insert (log append; the periodic commit keeps the WAL
     bounded and lets the automatic merge run inside the kernel). *)
  let index_lookup_kernel, index_insert_kernel =
    let server =
      Esm.Server.create ~frames:512 ~clock:(Simclock.Clock.create ())
        ~cm:Simclock.Cost_model.default ()
    in
    let client = Esm.Client.create ~frames:1536 server in
    let key = Esm.Btree.key_of_int ~klen:8 in
    let oid i = Esm.Oid.make ~page:(1 + (i / 8)) ~slot:(i mod 8) ~unique:i () in
    Esm.Client.begin_txn client;
    let idx = Esm.Log_index.create ~log_pages:64 client ~klen:8 in
    for i = 0 to 9_999 do
      Esm.Log_index.insert idx ~key:(key i) ~oid:(oid i)
    done;
    Esm.Client.commit client;
    Esm.Server.checkpoint server;
    Esm.Client.begin_txn client;
    let l = ref 0 and j = ref 10_000 in
    ( (fun () ->
        ignore (Esm.Log_index.lookup idx ~key:(key (!l mod 10_000)));
        incr l)
    , fun () ->
        Esm.Log_index.insert idx ~key:(key !j) ~oid:(oid !j);
        incr j;
        if !j land 4095 = 0 then begin
          Esm.Client.commit client;
          Esm.Server.checkpoint server;
          Esm.Client.begin_txn client
        end )
  in
  let btree_insert_kernel, btree_delete_kernel = btree_kernels () in
  let diff_kernel =
    let old_bytes = Bytes.make 8192 'a' in
    let new_bytes = Bytes.copy old_bytes in
    List.iter (fun i -> Bytes.set new_bytes i 'b') [ 10; 500; 501; 502; 4000; 8000 ];
    fun () -> ignore (Qs_util.Codec.diff_regions ~old_bytes ~new_bytes ~gap:25)
  in
  let tests =
    [ Test.make ~name:"table2/txn-begin-commit"
        (Staged.stage (fun () -> qs.Sys_.run_isolated (fun () -> ())))
    ; Test.make ~name:"fig8/qs-T1-cold" (Staged.stage (cold qs "T1"))
    ; Test.make ~name:"table3/e-T1-cold" (Staged.stage (cold e "T1"))
    ; Test.make ~name:"fig9/qs-Q3-cold" (Staged.stage (cold qs "Q3"))
    ; Test.make ~name:"table4/e-Q3-cold" (Staged.stage (cold e "Q3"))
    ; Test.make ~name:"table5/qs-fault-path" (Staged.stage (cold qs "T7"))
    ; Test.make ~name:"table6/qs-swizzle-100pct" (Staged.stage (cold qs_cr "T1"))
    ; Test.make ~name:"fig10/qs-T2B-update" (Staged.stage (update qs "T2B"))
    ; Test.make ~name:"fig11/page-diff" (Staged.stage diff_kernel)
    ; Test.make ~name:"fig12/qs-T1-hot" (Staged.stage (hot qs "T1"))
    ; Test.make ~name:"fig13/e-Q5-hot" (Staged.stage (hot e "Q5"))
    ; Test.make ~name:"table7/e-T1-hot" (Staged.stage (hot e "T1"))
    ; Test.make ~name:"fig14/qs-T6-cold" (Staged.stage (cold qs "T6"))
    ; Test.make ~name:"table8/qs-T8-scan" (Staged.stage (cold qs "T8"))
    ; Test.make ~name:"fig15/e-Q2-cold" (Staged.stage (cold e "Q2"))
    ; Test.make ~name:"table9/e-Q1-cold" (Staged.stage (cold e "Q1"))
    ; Test.make ~name:"fig16/e-T2B-update" (Staged.stage (update e "T2B"))
    ; Test.make ~name:"fig17/qs-cr-T1" (Staged.stage (cold qs_cr "T1"))
    ; Test.make ~name:"index_lookup" (Staged.stage index_lookup_kernel)
    ; Test.make ~name:"index_insert" (Staged.stage index_insert_kernel)
    ; Test.make ~name:"btree_insert" (Staged.stage btree_insert_kernel)
    ; Test.make ~name:"btree_delete" (Staged.stage btree_delete_kernel)
    ; Test.make ~name:"vm/deref-protected-u32" (Staged.stage (deref_kernel ())) ]
  in
  run_bechamel tests

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's called-out design choices.                 *)

let ablation_clock_policy () =
  (* §3.5: the shipped simplified clock vs the rejected per-frame
     protecting clock, under real paging pressure (client pool ~1/8 of
     the working set). The paper: "the extra overhead of manipulating
     the page protections and handling additional page-faults made this
     approach prohibitively expensive". *)
  let run policy =
    let config = { Qs_config.default with Qs_config.client_frames = 96; Qs_config.clock_policy = policy } in
    let sys = Sys_.make_qs ~config Params.small ~seed in
    let r1 = sys.Sys_.run ~op:"T1" ~seed ~hot_reps:0 in
    (* A second cold T1 with a warm server shows the paging regime. *)
    let r2 = sys.Sys_.run ~op:"T1" ~seed ~hot_reps:0 in
    let m = r2.Sys_.cold in
    ( r1.Sys_.cold.Harness.Measure.ms
    , m.Harness.Measure.ms
    , Harness.Measure.cat m Simclock.Category.Mmap_call
    , Harness.Measure.cat m Simclock.Category.Page_fault )
  in
  let s1, s2, smmap, strap = run Qs_config.Simplified_clock in
  let p1, p2, pmmap, ptrap = run Qs_config.Protecting_clock in
  Harness.Report.render
    ~title:
      "Ablation A. Buffer replacement under paging (small DB, 96-frame pool): simplified vs \
       protecting clock"
    ~header:[ "policy"; "T1 run1 (s)"; "T1 run2 (s)"; "mmap ms"; "trap ms" ]
    ~rows:
      [ [ "simplified (shipped)"
        ; Harness.Report.seconds s1
        ; Harness.Report.seconds s2
        ; Harness.Report.f1 smmap
        ; Harness.Report.f1 strap ]
      ; [ "protecting (rejected)"
        ; Harness.Report.seconds p1
        ; Harness.Report.seconds p2
        ; Harness.Report.f1 pmmap
        ; Harness.Report.f1 ptrap ] ]

let ablation_diff_gap () =
  (* §3.6: the coalescing rule minimizes logged bytes by joining
     modified regions whose clean gap is cheaper than another log
     header. Sweep the threshold from "never coalesce" to "log the
     whole modified span". *)
  let run gap =
    let config = { Qs_config.default with Qs_config.diff_gap = gap } in
    let sys = Sys_.make_qs ~config Params.small ~seed in
    let wal = Esm.Server.wal sys.Sys_.server in
    let before = Esm.Wal.update_bytes wal in
    let r = sys.Sys_.run ~op:"T2B" ~seed ~hot_reps:0 in
    let log_kb = (Esm.Wal.update_bytes wal - before) / 1024 in
    let commit_ms = match r.Sys_.commit with Some c -> c.Harness.Measure.ms | None -> 0.0 in
    [ string_of_int gap
    ; string_of_int log_kb
    ; Harness.Report.seconds commit_ms
    ; Harness.Report.seconds (Sys_.total_response r) ]
  in
  Harness.Report.render
    ~title:"Ablation B. Diff-coalescing threshold vs log volume (small DB, T2B)"
    ~header:[ "gap (bytes)"; "update-log KB"; "commit (s)"; "response (s)" ]
    ~rows:(List.map run [ 0; 5; 25; 200; 8192 ])

let ablation_rec_buffer () =
  (* §5.2 / QS-B: a recovery buffer smaller than the update set forces
     mid-transaction diff flushes and reprotection. *)
  let run mb =
    let config = { Qs_config.default with Qs_config.rec_buffer_bytes = mb * 256 * 1024 } in
    let sys = Sys_.make_qs ~config Params.small ~seed in
    let r = sys.Sys_.run ~op:"T2B" ~seed ~hot_reps:0 in
    [ Printf.sprintf "%.2f MB" (float_of_int mb /. 4.0)
    ; Harness.Report.seconds (Sys_.total_response r) ]
  in
  Harness.Report.render
    ~title:"Ablation C. Recovery-buffer capacity vs T2B response (small DB)"
    ~header:[ "capacity"; "response (s)" ]
    ~rows:(List.map run [ 2; 4; 16; 64 ])

let ablation_ptr_format () =
  (* §2's design space: VM addresses on disk (QuickStore/ObjectStore —
     swizzle only on collision, pay mapping objects) vs page-offset
     pointers (Texas/Wilson — swizzle everything at fault time,
     unswizzle dirty pages on write-back, no mapping objects). *)
  let run fmt =
    let config = { Qs_config.default with Qs_config.ptr_format = fmt } in
    let sys = Sys_.make_qs ~config Params.small ~seed in
    let t1 = sys.Sys_.run ~op:"T1" ~seed ~hot_reps:0 in
    let t2b = sys.Sys_.run ~op:"T2B" ~seed ~hot_reps:0 in
    [ (match fmt with
       | Qs_config.Vm_addresses -> "VM addresses (QS)"
       | Qs_config.Page_offsets -> "page offsets (QS-W)")
    ; Harness.Report.f1 (sys.Sys_.db_size_mb ())
    ; Harness.Report.seconds t1.Sys_.cold.Harness.Measure.ms
    ; string_of_int t1.Sys_.cold.Harness.Measure.reads_map
    ; Harness.Report.seconds (Sys_.total_response t2b) ]
  in
  Harness.Report.render
    ~title:"Ablation D. Pointer format on disk: swizzle-on-collision vs swizzle-everything"
    ~header:[ "format"; "DB MB"; "T1 cold (s)"; "map/bitmap I/Os"; "T2B response (s)" ]
    ~rows:[ run Qs_config.Vm_addresses; run Qs_config.Page_offsets ]

let ablations () =
  section "Ablations (design choices called out in DESIGN.md)";
  print_endline (ablation_clock_policy ());
  print_endline (ablation_diff_gap ());
  print_endline (ablation_rec_buffer ());
  print_endline (ablation_ptr_format ())

(* ------------------------------------------------------------------ *)
(* The human-readable tables of each BENCH baseline, printed after its
   runs (and its JSON, under --json).                                  *)

let cold s op = (Exp.get s op).Sys_.cold.Harness.Measure.ms

let small_tables small_suites =
  print_endline (Exp.fig8 small_suites);
  print_endline (Exp.table3 small_suites);
  print_endline (Exp.fig9 small_suites);
  print_endline (Exp.table4 small_suites);
  print_endline (Exp.table5 small_suites);
  (match small_suites with
   | qs_suite :: _ -> print_endline (Exp.table6 qs_suite)
   | [] -> ());
  print_endline (Exp.fig10 small_suites);
  print_endline (Exp.fig11 small_suites);
  print_endline (Exp.fig12 small_suites);
  print_endline (Exp.fig13 small_suites);
  print_endline (Exp.table7 small_suites)

(* Prefetch lives in QuickStore's fault handler, group commit is
   enabled per-store and diff shipping is a per-store commit path, so
   E must not move at all. Cold T1 is the one run whose pre-state is
   identical in both suites (first op on a freshly built system) and
   therefore bit-comparable; later ops see different carried-over
   cache/log state because the suites run different op sequences. *)
let e_control ~e_plain e_ctrl =
  Printf.printf "E control cold T1 %s the stock E baseline (%.1f s)\n"
    (if cold e_ctrl "T1" = cold e_plain "T1" then "matches" else "DIVERGES FROM")
    (cold e_ctrl "T1" /. 1000.0)

let prefetch_table ~stock suites =
  match (stock, suites) with
  | qs_plain :: e_plain :: _, [ qs_pre; e_ctrl ] ->
    let row (op, _) =
      let plain = cold qs_plain op and pre = cold qs_pre op in
      [ op
      ; Harness.Report.seconds plain
      ; Harness.Report.seconds pre
      ; Printf.sprintf "%.1f%%" (100.0 *. (plain -. pre) /. plain)
      ; Harness.Report.seconds (cold e_ctrl op) ]
    in
    print_endline
      (Harness.Report.render
         ~title:
           "QS cold response with prefetch_run_max=8 + group commit vs stock QS (small DB); E \
            control"
         ~header:[ "op"; "QS (s)"; "QS+prefetch (s)"; "saved"; "E ctrl (s)" ]
         ~rows:(List.map row qs_pre.Exp.results));
    e_control ~e_plain e_ctrl
  | _ -> ()

let diffship_table ~stock suites =
  match (stock, suites) with
  | qs_plain :: e_plain :: _, [ qs_ds; e_ctrl ] ->
    let commit_m s op =
      match (Exp.get s op).Sys_.commit with Some c -> c | None -> Harness.Measure.zero
    in
    let page = Esm.Page.page_size in
    let row op =
      let cp = commit_m qs_plain op and cd = commit_m qs_ds op in
      (* What the same commit would have shipped whole-page vs what the
         region ships actually put on the wire (Fig 11's "amount of
         recovery data" axis). *)
      let whole_equiv =
        (cd.Harness.Measure.client_writes + cd.Harness.Measure.region_ships) * page
      in
      let shipped = (cd.Harness.Measure.client_writes * page) + cd.Harness.Measure.region_bytes in
      [ op
      ; Harness.Report.seconds cp.Harness.Measure.ms
      ; Harness.Report.seconds cd.Harness.Measure.ms
      ; string_of_int (whole_equiv / 1024)
      ; string_of_int (shipped / 1024)
      ; (if shipped > 0 then
           Printf.sprintf "%.1fx" (float_of_int whole_equiv /. float_of_int shipped)
         else "-") ]
    in
    print_endline
      (Harness.Report.render
         ~title:
           "QS commit with diff_ship: modified byte regions vs whole-page ships (small DB); E \
            control untouched"
         ~header:[ "op"; "commit (s)"; "commit+ds (s)"; "whole-equiv KB"; "shipped KB"; "ratio" ]
         ~rows:(List.map row Exp.update_ops));
    e_control ~e_plain e_ctrl
  | _ -> ()

module Mc = Harness.Mc

let multi_table runs =
  print_endline
    (Harness.Report.render
       ~title:
         "N simulated clients on one server, same seed: committed work, deadlock retries and \
          lock waits (trace digest pins the interleaving)"
       ~header:[ "clients"; "committed"; "retries"; "lock waits"; "lock wait (s)"; "total (s)" ]
       ~rows:
         (List.map
            (fun (s : Mc.stats) ->
              [ string_of_int s.Mc.clients
              ; string_of_int s.Mc.committed
              ; string_of_int s.Mc.deadlock_retries
              ; string_of_int s.Mc.lock_waits
              ; Harness.Report.seconds s.Mc.lock_wait_ms
              ; Harness.Report.seconds s.Mc.total_ms ])
            runs))

let callback_table runs =
  print_endline
    (Harness.Report.render
       ~title:
         "4 clients, same seed, both cache regimes: retained hits replace server page reads; \
          recalls and group-commit rides are what the copy table costs/earns"
       ~header:
         [ "regime"; "committed"; "reads"; "retained hits"; "recalls"; "deferred"; "gc rides" ]
       ~rows:
         (List.map
            (fun (s : Mc.stats) ->
              [ (if s.Mc.callbacks then "callback" else "reset")
              ; string_of_int s.Mc.committed
              ; string_of_int s.Mc.reads
              ; string_of_int s.Mc.retained_hits
              ; string_of_int s.Mc.callbacks_sent
              ; string_of_int s.Mc.callbacks_deferred
              ; string_of_int s.Mc.gc_rides ])
            runs));
  match runs with
  | [ off; on ] when off.Mc.reads > on.Mc.reads ->
    Printf.printf "callback locking re-reads %d fewer server pages (%d -> %d)\n"
      (off.Mc.reads - on.Mc.reads) off.Mc.reads on.Mc.reads
  | [ off; on ] ->
    Printf.printf "WARNING: callback locking saved no server reads (%d -> %d)\n" off.Mc.reads
      on.Mc.reads
  | _ -> ()

let snapshot_table runs =
  print_endline
    (Harness.Report.render
       ~title:
         "4 clients, same seed, 80% read-only scans, both read regimes: snapshot bodies take no \
          page locks, so reader waits and wound retries collapse while writer effects stay \
          byte-identical (world digest)"
       ~header:
         [ "regime"; "committed"; "scans"; "retries"; "lock waits"; "lock wait (s)"; "snap reads"
         ; "deltas" ]
       ~rows:
         (List.map
            (fun (s : Mc.stats) ->
              [ (if s.Mc.snapshot then "snapshot" else "locking")
              ; string_of_int s.Mc.committed
              ; string_of_int s.Mc.read_txns
              ; string_of_int s.Mc.deadlock_retries
              ; string_of_int s.Mc.lock_waits
              ; Harness.Report.seconds s.Mc.lock_wait_ms
              ; string_of_int s.Mc.snapshot_reads
              ; string_of_int s.Mc.snapshot_deltas ])
            runs));
  match runs with
  | [ locking; snap ] ->
    Printf.printf "writer effects %s across regimes (world digest %s)\n"
      (if String.equal locking.Mc.world_digest snap.Mc.world_digest then "byte-identical"
       else "DIVERGE")
      (String.sub snap.Mc.world_digest 0 12);
    if snap.Mc.lock_waits * 5 <= locking.Mc.lock_waits then
      Printf.printf "reader lock waits collapse %d -> %d (>= 5x)\n" locking.Mc.lock_waits
        snap.Mc.lock_waits
    else
      Printf.printf "WARNING: lock waits only dropped %d -> %d (< 5x)\n" locking.Mc.lock_waits
        snap.Mc.lock_waits
  | _ -> ()

let index_table runs =
  let header, rows = Harness.Bench_json.index_table runs in
  print_endline
    (Harness.Report.render
       ~title:
         "200 cold lookups per scale (client cache dropped before each): the log index pays one \
          data-page fix at any size while the small-fan-out B-tree pays its depth"
       ~header ~rows);
  match Harness.Bench_json.log_spread (fun r -> r.Harness.Bench_json.ir_lookup_us) runs with
  | Some (lo, hi, spread) when spread < 2.0 ->
    Printf.printf "log-index lookup flat across two decades: %.1f..%.1f us (spread %.2fx)\n" lo hi
      spread
  | Some (lo, hi, spread) ->
    Printf.printf "WARNING: log-index lookup spread %.2fx (>= 2x): %.1f..%.1f us\n" spread lo hi
  | None -> ()

(* The stock small-database suites among the baselines run so far,
   which the batched-I/O and diff-ship tables and the medium Table 2
   compare against. *)
let stock results =
  match List.assoc_opt "BENCH_oo7.json" results with
  | Some (Harness.Bench_json.Suites s) -> s
  | Some _ | None -> []

let report ~results file (runs : Harness.Bench_json.runs) =
  match (file, runs) with
  | "BENCH_oo7.json", Suites s -> small_tables s
  | "BENCH_oo7_prefetch.json", Suites s -> prefetch_table ~stock:(stock results) s
  | "BENCH_oo7_diffship.json", Suites s -> diffship_table ~stock:(stock results) s
  | "BENCH_oo7_multi.json", Mc_runs r -> multi_table r
  | "BENCH_oo7_callback.json", Mc_runs r -> callback_table r
  | "BENCH_oo7_snapshot.json", Mc_runs r -> snapshot_table r
  | _, Index_runs r -> index_table r
  | _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "quick" argv in
  let with_bechamel = not (List.mem "no-bech" argv) in
  let emit_json = List.mem "--json" argv in
  if List.mem "deref" argv then begin
    (* Fast path for the EXPERIMENTS.md wall-clock numbers: only the
       Vmsim dereference kernel, no database build. *)
    let open Bechamel in
    section "Bechamel deref kernel (protected no-fault access path)";
    run_bechamel [ Test.make ~name:"vm/deref-protected-u32" (Staged.stage (deref_kernel ())) ];
    exit 0
  end;
  if List.mem "btree" argv then begin
    (* Fast path for the EXPERIMENTS.md B-tree codec numbers. *)
    let open Bechamel in
    section "Bechamel B-tree kernels (insert and delete at scattered keys)";
    let ins, del = btree_kernels () in
    run_bechamel
      [ Test.make ~name:"btree_insert" (Staged.stage ins); Test.make ~name:"btree_delete" (Staged.stage del) ];
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "QuickStore reproduction benchmark harness\n\
     (White & DeWitt, SIGMOD 1994; simulated 1994 testbed - see DESIGN.md)\n%!";

  (* Each BENCH baseline runs once: the same runs feed its JSON (the
     bytes test_bench_json regenerates from the same row) and its
     human-readable tables. *)
  let progress m = Printf.printf "%s\n%!" m in
  let results =
    List.fold_left
      (fun results (b : Harness.Bench_json.baseline) ->
        section b.title;
        let runs, json = b.run ~progress ~seed in
        (match runs with Harness.Bench_json.Suites s -> validate s | _ -> ());
        if emit_json then begin
          let oc = open_out_bin b.file in
          output_string oc json;
          close_out oc;
          Printf.printf "wrote %s\n%!" b.file
        end;
        print_newline ();
        report ~results b.file runs;
        (b.file, runs) :: results)
      [] Harness.Bench_json.baselines
  in
  let small = List.map (fun s -> s.Exp.sys) (stock results) in

  if not quick then begin
    section "Medium database";
    let medium = build_medium () in
    let medium_suites = run_phase ~label:"medium" medium ~ops:medium_ops in
    validate medium_suites;
    print_newline ();
    print_endline (Exp.table2 ~small ~medium);
    print_endline (Exp.fig14 medium_suites);
    print_endline (Exp.table8 medium_suites);
    print_endline (Exp.fig15 medium_suites);
    print_endline (Exp.table9 medium_suites);
    print_endline (Exp.fig16 medium_suites)
  end;

  ablations ();

  section "Relocation (Figure 17)";
  print_endline (Exp.fig17 ~seed ~fractions:[ 0.0; 0.05; 0.20; 0.50; 1.0 ]);

  section "Paper relationships";
  print_endline (Exp.claims ());

  if with_bechamel then bechamel_suite ();
  (* stderr: wall time is real time, not simulated — keeping stdout
     byte-identical across runs for the CI determinism gate. *)
  Printf.eprintf "\ntotal wall time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
