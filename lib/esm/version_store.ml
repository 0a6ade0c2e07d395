[@@@qs_lint.allow "QS001"] (* server-side patching of version images; no VM below this layer *)

(* Per-page version chains for snapshot-isolation reads.

   The commit path already computes precise modified-byte regions
   (diff-ship); this store keeps those regions around as *undo* deltas:
   each committed update of a versioned page pushes one delta holding
   the pre-commit bytes of exactly the offsets the commit changed.
   Applying the newest delta to the current stable image rolls the page
   back to the previous committed version, the next delta to the one
   before, and so on — the MOD/undo-ordering shape from the persistent
   memory transaction literature, bounded per page.

   Versions are named by COMMIT-record LSNs, not page-header LSNs: a
   snapshot taken between a transaction's update records and its commit
   record must not see its writes, and the commit LSN is the first
   point at which they become visible. *)

type delta = {
  from_lsn : int64;
      (* commit LSN this delta undoes: applying it to the version at
         [from_lsn] yields the version at [to_lsn] *)
  to_lsn : int64;  (* committed version the page reverts to *)
  regions : (int * bytes) list;  (* (offset, pre-commit bytes), sorted *)
}

type chain = {
  cpage : int;
  base_image : bytes;  (* full image as of [base_lsn]; QSan replay anchor *)
  base_lsn : int64;
  mutable stable_lsn : int64;  (* newest committed version of the page *)
  mutable deltas : delta list;  (* newest first *)
  mutable bytes_retained : int;  (* base image + delta payloads *)
}

type stats = {
  mutable deltas_pushed : int;
  mutable deltas_dropped : int;  (* evicted by the per-chain bound *)
  mutable deltas_trimmed : int;  (* reclaimed below the watermark *)
  mutable materializations : int;
  mutable too_old : int;
}

type t = {
  chains : (int, chain) Hashtbl.t;
  stamps : (int, int64) Hashtbl.t;
      (* page -> last commit LSN since enable, kept even after the
         chain itself is reclaimed: a recreated chain must anchor its
         base image at the true last commit, or QSan's WAL replay
         would re-apply updates the image already contains *)
  mutable enable_lsn : int64;  (* version of every page never updated since *)
  max_deltas : int;
  stats : stats;
}

exception Snapshot_too_old of { page : int; snapshot : int64; oldest : int64 }

let () =
  Printexc.register_printer (function
    | Snapshot_too_old { page; snapshot; oldest } ->
      Some
        (Printf.sprintf "Snapshot_too_old(page %d, snapshot %Ld, oldest retained %Ld)" page
           snapshot oldest)
    | _ -> None)

let create ?(max_deltas = 16) ~enable_lsn () =
  if max_deltas < 1 then invalid_arg "Version_store.create: max_deltas < 1";
  { chains = Hashtbl.create 64
  ; stamps = Hashtbl.create 64
  ; enable_lsn
  ; max_deltas
  ; stats =
      { deltas_pushed = 0; deltas_dropped = 0; deltas_trimmed = 0; materializations = 0
      ; too_old = 0 } }

let stats t = t.stats
let enable_lsn t = t.enable_lsn
let chain t page = Hashtbl.find_opt t.chains page

(* Last committed version of [page]: the chain head if one is live,
   the retained stamp if the chain was reclaimed, the enable LSN if
   the page was never updated since versioning began. *)
let page_version t page =
  match Hashtbl.find_opt t.stamps page with Some v -> v | None -> t.enable_lsn

let delta_bytes d = List.fold_left (fun a (_, b) -> a + Bytes.length b) 0 d.regions

let bytes_retained t =
  Hashtbl.fold (fun _ c a -> a + c.bytes_retained) t.chains 0

(* Undo regions: maximal runs where [current] differs from [baseline],
   payload taken from [baseline]. *)
let undo_regions ~baseline ~current =
  List.map
    (fun (off, len) -> (off, Bytes.sub baseline off len))
    (Qs_util.Codec.diff_regions ~old_bytes:baseline ~new_bytes:current ~gap:0)

let drop_oldest c =
  match List.rev c.deltas with
  | [] -> ()
  | oldest :: rev_rest ->
    c.deltas <- List.rev rev_rest;
    c.bytes_retained <- c.bytes_retained - delta_bytes oldest

let push t ~page ~baseline ~current ~commit_lsn =
  let regions = undo_regions ~baseline ~current in
  let prev = page_version t page in
  Hashtbl.replace t.stamps page commit_lsn;
  if regions <> [] then begin
    let c =
      match Hashtbl.find_opt t.chains page with
      | Some c -> c
      | None ->
        let c =
          { cpage = page
          ; base_image = Bytes.copy baseline
          ; base_lsn = prev
          ; stable_lsn = prev
          ; deltas = []
          ; bytes_retained = Bytes.length baseline }
        in
        Hashtbl.add t.chains page c;
        c
    in
    let d = { from_lsn = commit_lsn; to_lsn = c.stable_lsn; regions } in
    c.deltas <- d :: c.deltas;
    c.bytes_retained <- c.bytes_retained + delta_bytes d;
    c.stable_lsn <- commit_lsn;
    t.stats.deltas_pushed <- t.stats.deltas_pushed + 1;
    while List.length c.deltas > t.max_deltas do
      drop_oldest c;
      t.stats.deltas_dropped <- t.stats.deltas_dropped + 1
    done
  end

(* [materialize t ~page ~snapshot ~stable dst] writes into [dst] the
   page image as of [snapshot]. [stable] must be the newest *committed*
   image of the page (the in-flight writer's captured baseline when one
   exists, else the server's current bytes); its version is the chain
   head. Returns the number of deltas applied. *)
let materialize t ~page ~snapshot ~stable dst =
  Bytes.blit stable 0 dst 0 (Bytes.length stable);
  let applied = ref 0 in
  (match Hashtbl.find_opt t.chains page with
   | None ->
     (* No retained versions. [stable] serves [snapshot] only if the
        page's last commit is not newer than the snapshot. *)
     let v = page_version t page in
     if v > snapshot then begin
       t.stats.too_old <- t.stats.too_old + 1;
       raise (Snapshot_too_old { page; snapshot; oldest = v })
     end
   | Some c ->
     let version = ref c.stable_lsn in
     List.iter
       (fun d ->
         if !version > snapshot then begin
           List.iter (fun (off, b) -> Bytes.blit b 0 dst off (Bytes.length b)) d.regions;
           version := d.to_lsn;
           incr applied
         end)
       c.deltas;
     if !version > snapshot then begin
       t.stats.too_old <- t.stats.too_old + 1;
       raise (Snapshot_too_old { page; snapshot; oldest = !version })
     end);
  t.stats.materializations <- t.stats.materializations + 1;
  !applied

(* Reclamation: a delta whose [from_lsn] is at or below the watermark
   (the oldest active snapshot LSN) can be needed by no reader — a
   snapshot S only applies deltas with [from_lsn > S]. A chain whose
   deltas are all reclaimed is dropped whole (the stamp survives). *)
let trim ?on_trim t ~watermark =
  let victims = ref [] in
  Hashtbl.iter
    (fun page c ->
      let keep, drop = List.partition (fun d -> d.from_lsn > watermark) c.deltas in
      if drop <> [] then begin
        (match on_trim with Some f -> f () | None -> ());
        c.deltas <- keep;
        List.iter (fun d -> c.bytes_retained <- c.bytes_retained - delta_bytes d) drop;
        t.stats.deltas_trimmed <- t.stats.deltas_trimmed + List.length drop;
        if keep = [] then victims := page :: !victims
      end)
    t.chains;
  List.iter (fun p -> Hashtbl.remove t.chains p) !victims

(* Crash: version chains are volatile server state. The enable flag is
   policy (the restarting harness re-enables); chains and stamps are
   rebuilt from scratch at the restarted server's log position. *)
let reset t ~enable_lsn =
  Hashtbl.reset t.chains;
  Hashtbl.reset t.stamps;
  t.enable_lsn <- enable_lsn;
  t.stats.deltas_pushed <- 0;
  t.stats.deltas_dropped <- 0;
  t.stats.deltas_trimmed <- 0;
  t.stats.materializations <- 0;
  t.stats.too_old <- 0
