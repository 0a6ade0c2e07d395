[@@@qs_lint.allow "QS001"] (* redo applies log images to raw disk pages; no VM exists at restart *)

type stats = {
  logical_replayed : int;
  losers_undone : int;
  loser_updates_undone : int;
}

let restart ?(sanitize = false) server =
  let wal = Server.wal server in
  let disk = Server.disk server in
  let wal_end = Wal.last_lsn wal in
  (* --- analysis: finished transactions, and each unfinished one's
     undoable records, newest first --- *)
  let finished = Hashtbl.create 16 and unfinished = Hashtbl.create 16 in
  let push txn r = Hashtbl.replace unfinished txn (r :: Hashtbl.find unfinished txn) in
  Wal.iter_forced
    (fun _lsn r ->
      match r with
      | Wal.Begin txn -> Hashtbl.replace unfinished txn []
      | Wal.Commit txn | Wal.Abort txn ->
        Hashtbl.replace finished txn ();
        Hashtbl.remove unfinished txn
      | Wal.Update { txn; page; _ } when Disk.is_allocated disk page -> push txn r
      | (Wal.Index_insert { txn; root; _ } | Wal.Index_delete { txn; root; _ })
        when Disk.is_allocated disk root ->
        push txn r
      | Wal.Update _ | Wal.Index_insert _ | Wal.Index_delete _ -> ())
    wal;
  let losers =
    Hashtbl.fold (fun txn rs acc -> (txn, rs) :: acc) unfinished []
    |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  in
  (* QSan: undoing losers one at a time equals one newest-first sweep
     over all of them only if no two losers updated the same page.
     Strict 2PL X page locks give that. *)
  if sanitize then begin
    let owner = Hashtbl.create 16 in
    let claim txn = function
      | Wal.Update { page; _ } -> (
        match Hashtbl.find_opt owner page with
        | Some other when other <> txn ->
          Qs_util.Sanitizer.fail ~check:"loser-disjoint" ~subject:(Printf.sprintf "page %d" page)
            "losers %d and %d both updated the page" other txn
        | Some _ | None -> Hashtbl.replace owner page txn)
      | Wal.Index_insert _ | Wal.Index_delete _ | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ()
    in
    List.iter (fun (txn, rs) -> List.iter (claim txn) rs) losers
  end;
  List.iter (fun (txn, rs) -> Server.adopt_loser server ~txn rs) losers;
  (* --- redo (physical, all transactions, LSN-guarded) --- *)
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
          Disk.write disk page buf
        end
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
  (* --- undo: each loser is aborted like a runtime transaction, its
     inverse index operations applied through the restart client --- *)
  Btree.install_undo_handler client;
  List.iter (fun (txn, _) -> Server.abort server ~txn) losers;
  Client.commit client;
  Server.set_index_undo server (fun _ -> ());
  { logical_replayed = !logical_replayed
  ; losers_undone = List.length losers
  ; loser_updates_undone = List.fold_left (fun n (_, rs) -> n + List.length rs) 0 losers }
