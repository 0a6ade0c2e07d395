(* Command-line driver: build an OO7 database under a chosen
   persistence scheme and run benchmark operations, printing the
   simulated response time, I/O counts and cost breakdown. *)

module Params = Oo7.Params
module Sys_ = Harness.System
module Measure = Harness.Measure
module Qs_config = Quickstore.Qs_config
module Clock = Simclock.Clock

let params_of_size = function
  | "tiny" -> Params.tiny
  | "small" -> Params.small
  | "medium" -> Params.medium
  | s -> invalid_arg (Printf.sprintf "unknown size %S (tiny|small|medium)" s)

let make_system name params seed reloc sanitize log_index =
  let qs base =
    Sys_.make_qs ~config:{ base with Qs_config.sanitize; Qs_config.log_index } params ~seed
  in
  match String.lowercase_ascii name with
  | "qs" when reloc = 0.0 -> qs Qs_config.default
  | "qs" -> qs { Qs_config.default with Qs_config.reloc = Qs_config.Continual reloc }
  | "qs-or" -> qs { Qs_config.default with Qs_config.reloc = Qs_config.One_time reloc }
  | "qs-b" -> qs { Qs_config.default with Qs_config.mode = Qs_config.Big_objects }
  | "qs-w" -> qs { Qs_config.default with Qs_config.ptr_format = Qs_config.Page_offsets }
  | "e" ->
    if sanitize then
      prerr_endline "note: --sanitize applies to the QuickStore systems only; ignored for e";
    Sys_.make_e params ~seed
  | s -> invalid_arg (Printf.sprintf "unknown system %S (qs|qs-b|qs-w|qs-or|e)" s)

(* Multi-user mode: N simulated clients under the deterministic
   scheduler on one server (Harness.Mc). Everything printed derives
   from the seed — run it twice with the same seed and the output,
   including the trace digest, is byte-identical. *)
let run_multi ~clients ~seed ~callbacks ~read_pct ~snapshot =
  let s = Harness.Mc.run ~clients ~seed ~callbacks ~read_pct ~snapshot () in
  Printf.printf "multi-user contention run: %d clients x %d txns, seed %d%s%s\n"
    s.Harness.Mc.clients s.Harness.Mc.txns_per_client s.Harness.Mc.seed
    (if callbacks then " (callback locking)" else "")
    (if read_pct > 0 then
       Printf.sprintf " (%d%% %s scans)" read_pct (if snapshot then "snapshot" else "locking")
     else "");
  Printf.printf "  committed=%d deadlock_retries=%d lock_waits=%d\n" s.Harness.Mc.committed
    s.Harness.Mc.deadlock_retries s.Harness.Mc.lock_waits;
  Printf.printf "  lock_wait=%.3fms retry=%.3fms total=%.3fms\n" s.Harness.Mc.lock_wait_ms
    s.Harness.Mc.retry_ms s.Harness.Mc.total_ms;
  Printf.printf "  server reads=%d writes=%d trace_events=%d\n" s.Harness.Mc.reads
    s.Harness.Mc.writes s.Harness.Mc.trace_events;
  (* Extra lines only in callback mode, so the historical reset-mode
     output — pinned byte-for-byte by the CI determinism gate — is
     untouched. *)
  if callbacks then
    Printf.printf
      "  retained_hits=%d callbacks_sent=%d deferred=%d gc_rides=%d gc_cross_rides=%d\n"
      s.Harness.Mc.retained_hits s.Harness.Mc.callbacks_sent s.Harness.Mc.callbacks_deferred
      s.Harness.Mc.gc_rides s.Harness.Mc.gc_cross_rides;
  (* Likewise gated: the read-regime lines (and the world digest they
     certify) appear only when a read mix was requested. *)
  if read_pct > 0 then begin
    Printf.printf "  read_txns=%d snapshot_reads=%d snapshot_deltas=%d snapshot_retries=%d\n"
      s.Harness.Mc.read_txns s.Harness.Mc.snapshot_reads s.Harness.Mc.snapshot_deltas
      s.Harness.Mc.snapshot_retries;
    Printf.printf "  world digest: %s\n" s.Harness.Mc.world_digest
  end;
  List.iter
    (fun (c : Harness.Mc.client_stats) ->
      Printf.printf "  %s: committed=%d retries=%d\n" c.Harness.Mc.cs_name
        c.Harness.Mc.cs_committed c.Harness.Mc.cs_retries)
    s.Harness.Mc.per_client;
  Printf.printf "  trace digest: %s\n%!" s.Harness.Mc.trace_digest

let print_measure label (m : Measure.t) =
  Printf.printf "  %-8s %10.1f ms   reads=%d (data=%d map=%d index=%d) writes=%d result=%d\n" label
    m.Measure.ms m.Measure.client_reads m.Measure.reads_data m.Measure.reads_map
    m.Measure.reads_index m.Measure.client_writes m.Measure.result

let print_breakdown (m : Measure.t) =
  Format.printf "  breakdown:@.%a@." Clock.pp_snapshot m.Measure.snapshot

let run system size ops seed hot_reps reloc sanitize log_index faults verbose save clients
    callbacks read_pct snapshot =
  if clients > 1 then run_multi ~clients ~seed ~callbacks ~read_pct ~snapshot
  else begin
  if callbacks then prerr_endline "note: --callbacks applies to multi-client mode only; ignored";
  if read_pct > 0 || snapshot then
    prerr_endline "note: --read-pct/--snapshot apply to multi-client mode only; ignored";
  let params = params_of_size size in
  Printf.printf "building %s database for %s...\n%!" params.Params.name system;
  if sanitize then Printf.printf "QSan on: validating the address space at every fault and commit\n%!";
  let t0 = Unix.gettimeofday () in
  let sys = make_system system params seed reloc sanitize log_index in
  Printf.printf "built in %.1fs (wall); database size %.1f MB\n%!" (Unix.gettimeofday () -. t0)
    (sys.Sys_.db_size_mb ());
  (match save with
   | Some path ->
     Esm.Disk.save_to_file (Esm.Server.disk sys.Sys_.server) path;
     Printf.printf "volume image saved to %s (inspect with qs_dump)\n%!" path
   | None -> ());
  (* Faults arm only after the build, so the database itself is clean. *)
  (match faults with
   | Some spec ->
     Qs_fault.arm (Esm.Server.fault_injector sys.Sys_.server) (Qs_fault.plan_of_spec ~seed spec);
     Printf.printf "fault injection armed: %s (rng seed %d)\n%!" spec seed
   | None -> ());
  List.iter
    (fun op ->
      Printf.printf "%s on %s (%s):\n%!" op sys.Sys_.name params.Params.name;
      let t1 = Unix.gettimeofday () in
      match sys.Sys_.run ~op ~seed ~hot_reps with
      | r ->
        print_measure "cold" r.Sys_.cold;
        (match r.Sys_.hot with Some h -> print_measure "hot" h | None -> ());
        (match r.Sys_.commit with Some c -> print_measure "commit" c | None -> ());
        if verbose then print_breakdown r.Sys_.cold;
        Printf.printf "  (wall %.1fs; cold faults %d)\n%!" (Unix.gettimeofday () -. t1)
          (sys.Sys_.fault_count ())
      | exception Esm.Client.Degraded d ->
        Printf.printf
          "  DEGRADED: %s of page %d failed after %d attempts (%s); store abandoned\n%!" d.Esm.Client.op
          d.Esm.Client.page d.Esm.Client.attempts
          (Printexc.to_string d.Esm.Client.cause);
        exit 2
      | exception Qs_fault.Injected_crash { point; hit } ->
        Printf.printf "  CRASHED at injected point %s (hit %d); volume recoverable via restart\n%!"
          (Qs_fault.Point.name point) hit;
        exit 2)
    ops
  end

open Cmdliner

let system_arg =
  Arg.(value & opt string "qs" & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"qs, qs-b, qs-w, qs-or or e")

let size_arg =
  Arg.(value & opt string "small" & info [ "d"; "size" ] ~docv:"SIZE" ~doc:"tiny, small or medium")

let ops_arg =
  Arg.(
    value
    & opt (list string) [ "T1" ]
    & info [ "o"; "ops" ] ~docv:"OPS" ~doc:"comma-separated operations (T1,T2A,...,Q5)")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"random seed")
let hot_arg = Arg.(value & opt int 3 & info [ "hot-reps" ] ~doc:"hot repetitions (0 = cold only)")

let reloc_arg =
  Arg.(value & opt float 0.0 & info [ "relocate" ] ~doc:"fraction of pages relocated (QuickStore)")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "run with QSan, the address-space sanitizer: validate mapping table, protection bits \
           and residency at every fault and commit (QuickStore systems only)")

let log_index_arg =
  Arg.(
    value & flag
    & info [ "log-index" ]
        ~doc:
          "build the database's OID indices as log-structured indices (append-only log + sorted \
           run with an in-memory fan-out table) instead of B-trees. Same visible semantics; \
           inspect the result with qs_dump --index.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "arm fault injection on the server for the measured runs (the build is clean). \
              Syntax: %s"
             Qs_fault.spec_syntax))

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print the cost breakdown")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"save the volume image after building")

let clients_arg =
  Arg.(
    value & opt int 1
    & info [ "clients" ] ~docv:"N"
        ~doc:
          "run N simulated clients against one server under the deterministic scheduler \
           (contention mode; ignores the OO7 operation flags). Output is a pure function of \
           the seed.")

let callbacks_arg =
  Arg.(
    value & flag
    & info [ "callbacks" ]
        ~doc:
          "with --clients N: enable callback locking — clients keep clean pages cached across \
           transactions (QSan-verified byte-exact against the server), the server recalls \
           copies before exclusive grants, and group commit batches forces across clients. \
           Recall delivery is part of the deterministic interleaving digest.")

let read_pct_arg =
  Arg.(
    value & opt int 0
    & info [ "read-pct" ] ~docv:"PCT"
        ~doc:
          "with --clients N: make PCT percent of each client's transactions read-only scans \
           over everyone's partitions (0 = the legacy write mix, byte-identical to historical \
           output). Scans run as ordinary locking transactions unless --snapshot is given.")

let snapshot_arg =
  Arg.(
    value & flag
    & info [ "snapshot" ]
        ~doc:
          "with --clients N --read-pct P: run the read-only scans as MVCC snapshot bodies — a \
           snapshot LSN at begin, pages materialized as-of that LSN from the server's version \
           chains, no page locks anywhere on the read path. QSan cross-checks every \
           materialized page against WAL replay. The rng sequence matches the locking regime, \
           so the printed world digest must be identical in both.")

let cmd =
  let doc = "run OO7 benchmark operations on the QuickStore reproduction" in
  Cmd.v
    (Cmd.info "oo7_run" ~doc)
    Term.(
      const run $ system_arg $ size_arg $ ops_arg $ seed_arg $ hot_arg $ reloc_arg $ sanitize_arg
      $ log_index_arg $ faults_arg $ verbose_arg $ save_arg $ clients_arg $ callbacks_arg $ read_pct_arg
      $ snapshot_arg)

let () = exit (Cmd.eval cmd)
