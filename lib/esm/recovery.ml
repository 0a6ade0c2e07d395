[@@@qs_lint.allow "QS001"] (* redo/undo applies log images to raw disk pages; no VM exists at restart *)
[@@@qs_lint.allow "QS013"]
(* Recovery runs after the injector halted the process: the torture
   harness restarts with the injector disarmed, so these forces have no
   crash surface by design. Crash-during-recovery is future work
   (ROADMAP); until then the bare Wal.force sites here are intentional. *)

type stats = {
  redo_applied : int;
  redo_skipped : int;
  logical_replayed : int;
  losers_undone : int;
  loser_updates_undone : int;
}

let txn_of = function
  | Wal.Begin txn | Wal.Commit txn | Wal.Abort txn -> txn
  | Wal.Update { txn; _ } | Wal.Index_insert { txn; _ } | Wal.Index_delete { txn; _ } -> txn

let restart ?(sanitize = false) server =
  let wal = Server.wal server in
  let disk = Server.disk server in
  let wal_end = Wal.last_lsn wal in
  (* --- analysis --- *)
  let started = Hashtbl.create 16 and finished = Hashtbl.create 16 in
  Wal.iter_forced
    (fun _lsn r ->
      match r with
      | Wal.Begin txn -> Hashtbl.replace started txn ()
      | Wal.Commit txn | Wal.Abort txn -> Hashtbl.replace finished txn ()
      | Wal.Update _ | Wal.Index_insert _ | Wal.Index_delete _ -> ())
    wal;
  let is_loser txn = Hashtbl.mem started txn && not (Hashtbl.mem finished txn) in
  (* --- redo (physical, all transactions, LSN-guarded) --- *)
  let redo_applied = ref 0 and redo_skipped = ref 0 in
  let buf = Bytes.create Page.page_size in
  Wal.iter_forced
    (fun lsn r ->
      match r with
      | Wal.Update { page; off; new_data; _ } when Disk.is_allocated disk page ->
        Disk.read disk page buf;
        let page_lsn = Qs_util.Codec.get_i64 buf 8 in
        (* QSan: a page LSN beyond the end of the forced log means the
           disk image was written by records we never logged — torn
           write-ahead ordering or outside corruption. *)
        if sanitize && Int64.compare page_lsn wal_end > 0 then
          Qs_util.Sanitizer.fail ~check:"lsn-monotone" ~subject:(Printf.sprintf "page %d" page)
            "page LSN %Ld exceeds last logged LSN %Ld" page_lsn wal_end;
        if Int64.compare page_lsn lsn < 0 then begin
          Bytes.blit new_data 0 buf off (Bytes.length new_data);
          Qs_util.Codec.set_i64 buf 8 lsn;
          Disk.write disk page buf;
          incr redo_applied
        end
        else incr redo_skipped
      | Wal.Update _ | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Index_insert _
      | Wal.Index_delete _ -> ())
    wal;
  (* --- logical index replay for finished transactions --- *)
  let client = Client.create ~frames:128 server in
  Client.begin_txn client;
  let logical_replayed = ref 0 in
  Wal.iter_forced
    (fun _lsn r ->
      match r with
      | (Wal.Index_insert { txn; root; _ } | Wal.Index_delete { txn; root; _ })
        when Hashtbl.mem finished txn && Disk.is_allocated disk root ->
        Btree.apply_logical client r;
        incr logical_replayed
      | Wal.Index_insert _ | Wal.Index_delete _ | Wal.Begin _ | Wal.Update _ | Wal.Commit _
      | Wal.Abort _ -> ())
    wal;
  (* --- undo losers, newest record first --- *)
  let loser_records = ref [] in
  Wal.iter_forced
    (fun _lsn r -> if is_loser (txn_of r) then loser_records := r :: !loser_records)
    wal;
  let loser_updates_undone = ref 0 in
  List.iter
    (fun r ->
      match r with
      | Wal.Update { txn; page; off; old_data; new_data } when Disk.is_allocated disk page ->
        let clr =
          Wal.append wal (Wal.Update { txn; page; off; old_data = new_data; new_data = old_data })
        in
        Disk.read disk page buf;
        Bytes.blit old_data 0 buf off (Bytes.length old_data);
        Qs_util.Codec.set_i64 buf 8 clr;
        Disk.write disk page buf;
        incr loser_updates_undone
      | Wal.Index_insert { txn; root; key; oid } when Disk.is_allocated disk root ->
        let inv = Wal.Index_delete { txn; root; key; oid } in
        ignore (Wal.append wal inv);
        Btree.apply_logical client inv;
        incr loser_updates_undone
      | Wal.Index_delete { txn; root; key; oid } when Disk.is_allocated disk root ->
        let inv = Wal.Index_insert { txn; root; key; oid } in
        ignore (Wal.append wal inv);
        Btree.apply_logical client inv;
        incr loser_updates_undone
      | Wal.Update _ | Wal.Index_insert _ | Wal.Index_delete _ | Wal.Begin _ | Wal.Commit _
      | Wal.Abort _ -> ())
    !loser_records;
  let losers = Hashtbl.fold (fun txn () acc -> if is_loser txn then txn :: acc else acc) started [] in
  List.iter (fun txn -> ignore (Wal.append wal (Wal.Abort txn))) losers;
  Client.commit client;
  ignore (Wal.force wal);
  { redo_applied = !redo_applied
  ; redo_skipped = !redo_skipped
  ; logical_replayed = !logical_replayed
  ; losers_undone = List.length losers
  ; loser_updates_undone = !loser_updates_undone }
