[@@@qs_lint.allow "QS001"] (* log/data/directory page codecs: raw bytes over fixed index pages *)

(* Root page body, after the 32-byte common page header:
     32 u8  magic 0xA7 (distinguishes a log-index root from a B-tree root)
     33 u8  area — which ping-pong half holds the current run
     34 u16 klen
     36 u32 generation (committed merges since creation)
     40 u32 log_count
     44 u32 data_count
     48 u16 nlog            allocated log pages
     50 u16 ndir area 0     allocated directory pages per area
     52 u16 ndir area 1
     54 u16 used area 0     data pages in the area's active run
     56 u16 used area 1
     58 u16 pool area 0     data pages allocated to the area (>= used)
     60 u16 pool area 1
     62 u16 max_log         configured log-area bound, pages
     64                u32 log page ids      [max_log_cap = 256]
     64 + 4*256        u32 dir page ids, area 0   [max_dir = 64]
     64 + 4*256 + 4*64 u32 dir page ids, area 1   [max_dir = 64]
   (extent 1600 bytes, well inside the 8 KB page).

   Log page: (op u8, key, oid) entries packed from byte 32; log entry j
   lives on log page j/per_log at slot j mod per_log. Data page:
   (key, oid) entries packed from byte 32. Directory page: (first_key,
   page_id u32, nentries u16) entries packed from byte 32 — an area's
   directory lists its whole data-page pool in allocation order; the
   first [used] entries carry the run's fan-out keys and counts, spare
   pool pages follow with zeroed keys. The directory is the durable
   image of the in-memory fan-out table: lookups never read it, only
   open/recovery do.

   A merge writes the new run into the *other* area's pool (reusing
   its pages, growing the pool with fresh allocations as needed) and
   then swings the root in a single physically-logged update. The
   committed run's pages are never touched, so undo of a crashed or
   aborted merge restores exactly the old generation. Page allocation
   is not transactional, and the undone root swing forgets the grown
   pool, so pages allocated by an undone merge leak permanently
   (bounded by that one merge's pool growth). *)

let hdr = 32
let magic = 0xA7
let max_log_cap = 256
let max_dir = 64
let off_log = 64
let off_dir a = off_log + (4 * max_log_cap) + (a * 4 * max_dir)
let root_extent = off_dir 1 + (4 * max_dir)

type t = {
  client : Client.t;
  root : int;
  klen : int;
  mutable max_log : int;
  mutable generation : int;
  mutable area : int;
  mutable data_count : int;
  mutable ndir_cur : int;
  mutable pool_cur : int;
  (* log mirror: every binding currently in the log area, in append
     order, plus a per-key view (newest first) for lookups *)
  mutable nlog : int;
  mutable log_pages : int array;
  mutable log_len : int;
  mutable log_ops : (bool * bytes * Oid.t) array;  (* physical length >= log_len *)
  log_tbl : (string, (bool * Oid.t) list) Hashtbl.t;
  (* fan-out over the current run: first key / page id / entries per
     data page, in run order *)
  mutable fan_keys : bytes array;
  mutable fan_pages : int array;
  mutable fan_counts : int array;
}

let root t = t.root
let klen t = t.klen
let per_log t = (Page.page_size - hdr) / (1 + t.klen + Oid.disk_size)
let per_data t = (Page.page_size - hdr) / (t.klen + Oid.disk_size)
let per_dir t = (Page.page_size - hdr) / (t.klen + 6)
let log_cap t = t.max_log * per_log t
let fault t = Server.fault_injector (Client.server t.client)
let clock t = Client.clock t.client

let charge t =
  let cm = Client.cost_model t.client in
  Qs_trace.charge (clock t) Simclock.Category.Index_op cm.Simclock.Cost_model.index_cpu_us

let charge_n t n =
  let cm = Client.cost_model t.client in
  Qs_trace.charge_n (clock t) Simclock.Category.Index_op n cm.Simclock.Cost_model.index_cpu_us

let with_page t page_id f =
  let frame = Client.fix_page t.client ~kind:Server.Index page_id in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page t.client ~frame)
    (fun () -> f frame (Client.page_bytes t.client ~frame))

(* ------------------------------------------------------------------ *)
(* Log mirror.                                                         *)

let tbl_add t ins key oid =
  let ks = Bytes.to_string key in
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.log_tbl ks) in
  Hashtbl.replace t.log_tbl ks ((ins, oid) :: prev)

let push_op t ins key oid =
  if t.log_len >= Array.length t.log_ops then begin
    let n = max 64 (2 * Array.length t.log_ops) in
    let a = Array.make n (true, Bytes.empty, Oid.null) in
    Array.blit t.log_ops 0 a 0 t.log_len;
    t.log_ops <- a
  end;
  t.log_ops.(t.log_len) <- (ins, key, oid);
  t.log_len <- t.log_len + 1;
  tbl_add t ins key oid

(* Rewind the mirror to [n] entries (an abort or a restart rolled the
   durable log back to a prefix of what this handle saw). *)
let truncate_log t n =
  t.log_len <- n;
  Hashtbl.reset t.log_tbl;
  for j = 0 to n - 1 do
    let ins, key, oid = t.log_ops.(j) in
    tbl_add t ins key oid
  done

let read_log_entries t ~from ~upto =
  let es = per_log t in
  let esz = 1 + t.klen + Oid.disk_size in
  let j = ref from in
  while !j < upto do
    let pidx = !j / es in
    with_page t t.log_pages.(pidx) (fun _frame b ->
        let stop = min upto ((pidx + 1) * es) in
        while !j < stop do
          let off = hdr + (!j mod es * esz) in
          let ins = Qs_util.Codec.get_u8 b off = 1 in
          let key = Bytes.sub b (off + 1) t.klen in
          let oid = Oid.read b (off + 1 + t.klen) in
          push_op t ins key oid;
          incr j
        done)
  done

(* ------------------------------------------------------------------ *)
(* Fan-out (directory) loading.                                        *)

let load_fanout t ~dirs ~used =
  let per = per_dir t in
  let esz = t.klen + 6 in
  let fk = Array.make used Bytes.empty in
  let fp = Array.make used 0 in
  let fc = Array.make used 0 in
  Array.iteri
    (fun d dpage ->
      let base = d * per in
      if base < used then
        with_page t dpage (fun _frame b ->
            let stop = min used (base + per) in
            for i = base to stop - 1 do
              let off = hdr + ((i - base) * esz) in
              fk.(i) <- Bytes.sub b off t.klen;
              fp.(i) <- Qs_util.Codec.get_u32 b (off + t.klen);
              fc.(i) <- Qs_util.Codec.get_u16 b (off + t.klen + 4)
            done))
    dirs;
  t.fan_keys <- fk;
  t.fan_pages <- fp;
  t.fan_counts <- fc

(* The whole pool of an area (page ids only), for merge reuse. *)
let read_pool t ~dirs ~pool =
  let per = per_dir t in
  let esz = t.klen + 6 in
  let ids = Array.make pool 0 in
  Array.iteri
    (fun d dpage ->
      let base = d * per in
      if base < pool then
        with_page t dpage (fun _frame b ->
            let stop = min pool (base + per) in
            for i = base to stop - 1 do
              ids.(i) <- Qs_util.Codec.get_u32 b (hdr + ((i - base) * esz) + t.klen)
            done))
    dirs;
  ids

(* ------------------------------------------------------------------ *)
(* Mirror validation.                                                  *)

(* Every operation enters through [sync]: compare the mirror against
   the root page's (generation, area, log_count). A generation or area
   change (a merge by another handle, or an undone merge by this one)
   reloads everything; within a generation the log can only have grown
   (another append) or shrunk to a prefix (abort/restart undo). *)
let sync t =
  with_page t t.root (fun _frame b ->
      if Qs_util.Codec.get_u8 b hdr <> magic then
        invalid_arg "Log_index: not a log-index root page";
      let gen = Qs_util.Codec.get_u32 b 36 in
      let area = Qs_util.Codec.get_u8 b 33 in
      let log_count = Qs_util.Codec.get_u32 b 40 in
      if gen <> t.generation || area <> t.area then begin
        if Qs_util.Codec.get_u16 b 34 <> t.klen then invalid_arg "Log_index: klen mismatch";
        t.generation <- gen;
        t.area <- area;
        t.data_count <- Qs_util.Codec.get_u32 b 44;
        t.max_log <- Qs_util.Codec.get_u16 b 62;
        t.nlog <- Qs_util.Codec.get_u16 b 48;
        t.log_pages <- Array.init t.nlog (fun i -> Qs_util.Codec.get_u32 b (off_log + (4 * i)));
        t.ndir_cur <- Qs_util.Codec.get_u16 b (50 + (2 * area));
        t.pool_cur <- Qs_util.Codec.get_u16 b (58 + (2 * area));
        let used = Qs_util.Codec.get_u16 b (54 + (2 * area)) in
        let dirs = Array.init t.ndir_cur (fun i -> Qs_util.Codec.get_u32 b (off_dir area + (4 * i))) in
        load_fanout t ~dirs ~used;
        truncate_log t 0;
        read_log_entries t ~from:0 ~upto:log_count
      end
      else if log_count < t.log_len then begin
        (* The shrink may have undone a log-area growth too (root nlog
           and page-id slots rolled back with it): refresh the page
           list so the next append re-registers any dropped page. *)
        t.nlog <- Qs_util.Codec.get_u16 b 48;
        t.log_pages <- Array.init t.nlog (fun i -> Qs_util.Codec.get_u32 b (off_log + (4 * i)));
        truncate_log t log_count
      end
      else if log_count > t.log_len then begin
        t.nlog <- Qs_util.Codec.get_u16 b 48;
        t.log_pages <- Array.init t.nlog (fun i -> Qs_util.Codec.get_u32 b (off_log + (4 * i)));
        read_log_entries t ~from:t.log_len ~upto:log_count
      end)

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let mk client ~root ~klen =
  { client
  ; root
  ; klen
  ; max_log = max_log_cap
  ; generation = -1  (* forces a full reload on first sync *)
  ; area = 0
  ; data_count = 0
  ; ndir_cur = 0
  ; pool_cur = 0
  ; nlog = 0
  ; log_pages = [||]
  ; log_len = 0
  ; log_ops = [||]
  ; log_tbl = Hashtbl.create 64
  ; fan_keys = [||]
  ; fan_pages = [||]
  ; fan_counts = [||] }

let create ?(log_pages = max_log_cap) client ~klen =
  if klen < 1 || klen > 64 then invalid_arg "Log_index.create: bad klen";
  let log_pages = min (max log_pages 1) max_log_cap in
  let page_id, frame = Client.new_page client ~kind:Page.Log_index in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page client ~frame)
    (fun () ->
      let b = Client.page_bytes client ~frame in
      Qs_util.Codec.set_u8 b hdr magic;
      Qs_util.Codec.set_u16 b 34 klen;
      Qs_util.Codec.set_u16 b 62 log_pages;
      Client.log_update client ~page_id ~frame ~off:hdr ~old_data:(Bytes.make 32 '\000')
        ~new_data:(Bytes.sub b hdr 32);
      Client.mark_dirty client ~frame);
  let t = mk client ~root:page_id ~klen in
  t.generation <- 0;
  t.max_log <- log_pages;
  t

let open_index client ~root ~klen =
  let t = mk client ~root ~klen in
  sync t;
  t

let is_log_index_root client ~root =
  let frame = Client.fix_page client ~kind:Server.Index root in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page client ~frame)
    (fun () -> Qs_util.Codec.get_u8 (Client.page_bytes client ~frame) hdr = magic)

(* ------------------------------------------------------------------ *)
(* Reads.                                                              *)

(* First fan-out slot whose key is >= [key]. *)
let fan_lower_bound keys key =
  let n = Array.length keys in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Bytes.compare keys.(mid) key < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* First entry of a data page whose key is >= [key]. *)
let page_lower_bound t b cnt key =
  let esz = t.klen + Oid.disk_size in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Bytes.compare (Bytes.sub b (hdr + (mid * esz)) t.klen) key < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 cnt

(* Stream the run's entries >= [key] in order; [f] returns false to
   stop. An equal-key run may straddle a page boundary, so the scan
   starts one page before the first fan-out key >= [key]. *)
let iter_data_from t key f =
  let n = Array.length t.fan_keys in
  if n > 0 then begin
    let start = max 0 (fan_lower_bound t.fan_keys key - 1) in
    let esz = t.klen + Oid.disk_size in
    let continue = ref true in
    let p = ref start in
    while !continue && !p < n do
      charge t;
      with_page t t.fan_pages.(!p) (fun _frame b ->
          let cnt = t.fan_counts.(!p) in
          let i = ref (if !p = start then page_lower_bound t b cnt key else 0) in
          while !continue && !i < cnt do
            let off = hdr + (!i * esz) in
            continue := f (Bytes.sub b off t.klen) (Oid.read b (off + t.klen));
            incr i
          done);
      incr p
    done
  end

(* Pairs visibly stored under [key], in insertion order: the run's
   pairs with the log's ops folded over them (oldest first). *)
let visible_all t key =
  let data = ref [] in
  iter_data_from t key (fun k oid ->
      if Bytes.equal k key then begin
        data := oid :: !data;
        true
      end
      else false);
  let data = List.rev !data in
  let ops =
    match Hashtbl.find_opt t.log_tbl (Bytes.to_string key) with
    | None -> []
    | Some l -> List.rev l
  in
  List.fold_left
    (fun acc (ins, oid) ->
      if ins then if List.exists (Oid.equal oid) acc then acc else acc @ [ oid ]
      else List.filter (fun o -> not (Oid.equal o oid)) acc)
    data ops

let check_key t name key =
  if Bytes.length key <> t.klen then
    invalid_arg (Printf.sprintf "Log_index.%s: wrong key length" name)

let lookup t ~key =
  check_key t "lookup" key;
  sync t;
  charge t;
  Qs_trace.with_span (clock t) ~cat:"index" "index.lookup" (fun () ->
      match visible_all t key with [] -> None | oid :: _ -> Some oid)

let lookup_all t ~key =
  check_key t "lookup_all" key;
  sync t;
  charge t;
  Qs_trace.with_span (clock t) ~cat:"index" "index.lookup" (fun () -> visible_all t key)

(* Merge-join of the run's [lo..hi] slice with the log's keys, emitting
   every visible pair ascending (per-key insertion order). Data pages
   are all unfixed before the first emit, so callbacks may fault. *)
let fold_visible t ~lo ~hi emit =
  let data = ref [] in
  iter_data_from t lo (fun k oid ->
      if Bytes.compare k hi > 0 then false
      else begin
        data := (k, oid) :: !data;
        true
      end);
  let data = List.rev !data in
  let log_keys =
    Hashtbl.fold
      (fun ks _ acc ->
        let k = Bytes.of_string ks in
        if Bytes.compare k lo >= 0 && Bytes.compare k hi <= 0 then k :: acc else acc)
      t.log_tbl []
    |> List.sort Bytes.compare
  in
  let emit_group k pairs =
    let ops =
      match Hashtbl.find_opt t.log_tbl (Bytes.to_string k) with
      | None -> []
      | Some l -> List.rev l
    in
    let survivors =
      List.fold_left
        (fun acc (ins, oid) ->
          if ins then if List.exists (Oid.equal oid) acc then acc else acc @ [ oid ]
          else List.filter (fun o -> not (Oid.equal o oid)) acc)
        pairs ops
    in
    List.iter (fun oid -> emit k oid) survivors
  in
  let take_group k lst =
    let rec go acc = function
      | (k', oid) :: rest when Bytes.equal k' k -> go (oid :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    go [] lst
  in
  let rec go data logs =
    match (data, logs) with
    | [], [] -> ()
    | [], lk :: lrest ->
      emit_group lk [];
      go [] lrest
    | (k, _) :: _, [] ->
      let grp, rest = take_group k data in
      emit_group k grp;
      go rest []
    | (k, _) :: _, lk :: lrest ->
      let c = Bytes.compare lk k in
      if c < 0 then begin
        emit_group lk [];
        go data lrest
      end
      else begin
        let grp, rest = take_group k data in
        emit_group k grp;
        go rest (if c = 0 then lrest else logs)
      end
  in
  go data log_keys

let range t ~lo ~hi f =
  sync t;
  charge t;
  fold_visible t ~lo ~hi f

let cardinal t =
  sync t;
  let n = ref 0 in
  fold_visible t ~lo:(Bytes.make t.klen '\000') ~hi:(Bytes.make t.klen '\xff') (fun _ _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Merge.                                                              *)

(* Fold the log into a fresh sorted run in the other area and swing
   the root in one logged update. Lock-free: the pages written are
   invisible until the swing, and the swing itself is a single
   physically-logged root update (QS017 pins the no-lock-across-charge
   property of this path). *)
let do_merge t ~force =
  if t.log_len > 0 || force then
    Qs_trace.with_span (clock t) ~cat:"index" "index.merge" (fun () ->
        let lo = Bytes.make t.klen '\000' and hi = Bytes.make t.klen '\xff' in
        let merged = ref [] and count = ref 0 in
        fold_visible t ~lo ~hi (fun k oid ->
            merged := (k, oid) :: !merged;
            incr count);
        let merged = List.rev !merged in
        let count = !count in
        let per = per_data t in
        let needed = (count + per - 1) / per in
        let b_area = 1 - t.area in
        (* the other area's existing pool and directory, from the root *)
        let ndir_b, pool_b, dirs_b =
          with_page t t.root (fun _frame b ->
              let ndir_b = Qs_util.Codec.get_u16 b (50 + (2 * b_area)) in
              let pool_b = Qs_util.Codec.get_u16 b (58 + (2 * b_area)) in
              let dirs = Array.init ndir_b (fun i -> Qs_util.Codec.get_u32 b (off_dir b_area + (4 * i))) in
              (ndir_b, pool_b, dirs))
        in
        let pool = read_pool t ~dirs:dirs_b ~pool:pool_b in
        let pool_n = max pool_b needed in
        let per_dirp = per_dir t in
        let ndir_new = max ndir_b ((pool_n + per_dirp - 1) / per_dirp) in
        if ndir_new > max_dir then invalid_arg "Log_index: index full";
        let alloc_page () =
          let page_id, frame = Client.new_page t.client ~kind:Page.Log_index in
          Client.unfix_page t.client ~frame;
          page_id
        in
        let pool =
          Array.init pool_n (fun i -> if i < pool_b then pool.(i) else alloc_page ())
        in
        let dirs = Array.init ndir_new (fun i -> if i < ndir_b then dirs_b.(i) else alloc_page ()) in
        (* write the new run *)
        let fk = Array.make needed Bytes.empty in
        let fc = Array.make needed 0 in
        let esz = t.klen + Oid.disk_size in
        let body_len = Page.page_size - hdr in
        let rest = ref merged in
        for p = 0 to needed - 1 do
          Qs_fault.hit (fault t) Qs_fault.Point.Index_merge_write;
          let cnt = min per (count - (p * per)) in
          fc.(p) <- cnt;
          with_page t pool.(p) (fun frame b ->
              let old = Bytes.sub b hdr body_len in
              Bytes.fill b hdr body_len '\000';
              for i = 0 to cnt - 1 do
                match !rest with
                | (k, oid) :: tail ->
                  if i = 0 then fk.(p) <- k;
                  Bytes.blit k 0 b (hdr + (i * esz)) t.klen;
                  Oid.write b (hdr + (i * esz) + t.klen) oid;
                  rest := tail
                | [] -> assert false
              done;
              Client.log_update t.client ~page_id:pool.(p) ~frame ~off:hdr ~old_data:old
                ~new_data:(Bytes.sub b hdr body_len);
              Client.mark_dirty t.client ~frame)
        done;
        (* write the area's directory: the run first, then spare pool pages *)
        let dsz = t.klen + 6 in
        for d = 0 to ndir_new - 1 do
          let base = d * per_dirp in
          if base < pool_n then
            with_page t dirs.(d) (fun frame b ->
                let old = Bytes.sub b hdr body_len in
                Bytes.fill b hdr body_len '\000';
                let stop = min pool_n (base + per_dirp) in
                for i = base to stop - 1 do
                  let off = hdr + ((i - base) * dsz) in
                  if i < needed then begin
                    Bytes.blit fk.(i) 0 b off t.klen;
                    Qs_util.Codec.set_u16 b (off + t.klen + 4) fc.(i)
                  end;
                  Qs_util.Codec.set_u32 b (off + t.klen) pool.(i)
                done;
                Client.log_update t.client ~page_id:dirs.(d) ~frame ~off:hdr ~old_data:old
                  ~new_data:(Bytes.sub b hdr body_len);
                Client.mark_dirty t.client ~frame)
        done;
        charge_n t (needed + ndir_new);
        (* swing: one logged update covering every root field *)
        Qs_fault.hit (fault t) Qs_fault.Point.Index_merge_swing;
        with_page t t.root (fun frame b ->
            let old = Bytes.sub b hdr (root_extent - hdr) in
            Qs_util.Codec.set_u8 b 33 b_area;
            Qs_util.Codec.set_u32 b 36 (t.generation + 1);
            Qs_util.Codec.set_u32 b 40 0;
            Qs_util.Codec.set_u32 b 44 count;
            Qs_util.Codec.set_u16 b (50 + (2 * b_area)) ndir_new;
            Qs_util.Codec.set_u16 b (54 + (2 * b_area)) needed;
            Qs_util.Codec.set_u16 b (58 + (2 * b_area)) pool_n;
            Array.iteri (fun i id -> Qs_util.Codec.set_u32 b (off_dir b_area + (4 * i)) id) dirs;
            Client.log_update t.client ~page_id:t.root ~frame ~off:hdr ~old_data:old
              ~new_data:(Bytes.sub b hdr (root_extent - hdr));
            Client.mark_dirty t.client ~frame);
        (* the mirror is now the new generation *)
        t.generation <- t.generation + 1;
        t.area <- b_area;
        t.data_count <- count;
        t.ndir_cur <- ndir_new;
        t.pool_cur <- pool_n;
        truncate_log t 0;
        t.fan_keys <- fk;
        t.fan_pages <- Array.sub pool 0 needed;
        t.fan_counts <- fc;
        Qs_trace.counter (clock t) "index.generation" (float_of_int t.generation);
        Qs_trace.counter (clock t) "index.data_entries" (float_of_int count))

let merge ?(force = false) t =
  sync t;
  do_merge t ~force

(* ------------------------------------------------------------------ *)
(* Writes.                                                             *)

let append_binding t ins key oid =
  Qs_fault.hit (fault t) Qs_fault.Point.Index_log_append;
  if t.log_len >= log_cap t then do_merge t ~force:false;
  let es = per_log t in
  let esz = 1 + t.klen + Oid.disk_size in
  let j = t.log_len in
  let pidx = j / es in
  if pidx >= t.nlog then begin
    (* grow the log area by one page, recorded in the root *)
    let page_id, frame = Client.new_page t.client ~kind:Page.Log_index in
    Client.unfix_page t.client ~frame;
    with_page t t.root (fun rframe rb ->
        let old_n = Bytes.sub rb 48 2 in
        Qs_util.Codec.set_u16 rb 48 (pidx + 1);
        Client.log_update t.client ~page_id:t.root ~frame:rframe ~off:48 ~old_data:old_n
          ~new_data:(Bytes.sub rb 48 2);
        let slot = off_log + (4 * pidx) in
        let old_s = Bytes.sub rb slot 4 in
        Qs_util.Codec.set_u32 rb slot page_id;
        Client.log_update t.client ~page_id:t.root ~frame:rframe ~off:slot ~old_data:old_s
          ~new_data:(Bytes.sub rb slot 4);
        Client.mark_dirty t.client ~frame:rframe);
    t.nlog <- pidx + 1;
    t.log_pages <- Array.append t.log_pages [| page_id |]
  end;
  let lp = t.log_pages.(pidx) in
  with_page t lp (fun frame b ->
      let off = hdr + (j mod es * esz) in
      let old = Bytes.sub b off esz in
      Qs_util.Codec.set_u8 b off (if ins then 1 else 0);
      Bytes.blit key 0 b (off + 1) t.klen;
      Oid.write b (off + 1 + t.klen) oid;
      Client.log_update t.client ~page_id:lp ~frame ~off ~old_data:old
        ~new_data:(Bytes.sub b off esz);
      Client.mark_dirty t.client ~frame);
  with_page t t.root (fun frame b ->
      let old = Bytes.sub b 40 4 in
      Qs_util.Codec.set_u32 b 40 (j + 1);
      Client.log_update t.client ~page_id:t.root ~frame ~off:40 ~old_data:old
        ~new_data:(Bytes.sub b 40 4);
      Client.mark_dirty t.client ~frame);
  push_op t ins (Bytes.copy key) oid

let insert t ~key ~oid =
  check_key t "insert" key;
  sync t;
  charge t;
  append_binding t true key oid

let delete t ~key ~oid =
  check_key t "delete" key;
  sync t;
  charge t;
  let present = List.exists (Oid.equal oid) (visible_all t key) in
  if present then append_binding t false key oid;
  present

(* ------------------------------------------------------------------ *)
(* Introspection.                                                      *)

type stats = {
  generation : int;
  log_len : int;
  log_cap : int;
  data_entries : int;
  data_pages : int;
  dir_pages : int;
  fanout : int array;
}

let stats t =
  sync t;
  { generation = t.generation
  ; log_len = t.log_len
  ; log_cap = log_cap t
  ; data_entries = t.data_count
  ; data_pages = Array.length t.fan_pages
  ; dir_pages = t.ndir_cur
  ; fanout = Array.copy t.fan_counts }
