module Client = Esm.Client
module Server = Esm.Server
module Page = Esm.Page
module Oid = Esm.Oid
module Btree = Esm.Btree
module Log_index = Esm.Log_index
module Root_dir = Esm.Root_dir
module Large_obj = Esm.Large_obj
module Buf_pool = Esm.Buf_pool
module Clock = Simclock.Clock
module Category = Simclock.Category
module CM = Simclock.Cost_model
module Bitset = Qs_util.Bitset
module San = Qs_util.Sanitizer
module MT = Mapping_table

type ptr = int

exception Address_space_exhausted

let null = 0
let is_null p = p = 0
let ptr_equal (a : int) b = a = b

type cluster = { mutable fill : int option  (* current data page id *) }

(* A named index is either the B-tree oracle or the log-structured
   index; [Qs_config.log_index] steers creation, the root page's magic
   byte steers open (so a database can mix both). *)
type index_handle = I_btree of Btree.t | I_log of Log_index.t
type field = { fl_layout : Schema.layout; fl_off : int; fl_kind : Schema.field_kind }

type stats = {
  mutable hard_faults : int;
  mutable soft_faults : int;
  mutable pages_prefetched : int;
  mutable write_faults : int;
  mutable pages_swizzled : int;
  mutable ptrs_rewritten : int;
  mutable relocations : int;
  mutable map_entries_processed : int;
  mutable mapping_objects_updated : int;
  mutable pages_diffed : int;
  mutable diff_log_records : int;
  mutable rec_buffer_overflows : int;
  mutable pages_region_shipped : int;
  mutable region_bytes_shipped : int;
  mutable pages_ship_fallback : int;
  mutable pages_ship_skipped : int;
  mutable snapshot_faults : int;
}

let fresh_stats () =
  { hard_faults = 0
  ; soft_faults = 0
  ; pages_prefetched = 0
  ; write_faults = 0
  ; pages_swizzled = 0
  ; ptrs_rewritten = 0
  ; relocations = 0
  ; map_entries_processed = 0
  ; mapping_objects_updated = 0
  ; pages_diffed = 0
  ; diff_log_records = 0
  ; rec_buffer_overflows = 0
  ; pages_region_shipped = 0
  ; region_bytes_shipped = 0
  ; pages_ship_fallback = 0
  ; pages_ship_skipped = 0
  ; snapshot_faults = 0 }

type t = {
  config : Qs_config.t;
  client : Client.t;
  vm : Vmsim.t;
  mutable schema : Schema.t;
  mutable schema_dirty : bool;
  table : MT.t;
  rec_buf : Rec_buffer.t;
  clock : Clock.t;
  cm : CM.t;
  meta_page : int;
  mutable frame_counter : int;
  mutable counter_dirty : bool;
  mutable map_fill : int option;  (* current page receiving mapping objects *)
  mutable bitmap_fill : int option;
  bitmaps : (int, Bitset.t) Hashtbl.t;  (* data page id -> pointer bitmap *)
  bitmaps_dirty : (int, unit) Hashtbl.t;
  pending_map_update : (int, unit) Hashtbl.t;  (* data pages whose mapping object may be stale *)
  resident : (int, MT.desc) Hashtbl.t;  (* disk page id -> descriptor, while mapped+resident *)
  large_ids : (int, int array) Hashtbl.t;  (* large header page -> data page ids *)
  reloc_rng : Qs_util.Rng.t;
  reloc_choice : (int, bool) Hashtbl.t;
  indices : (string, index_handle) Hashtbl.t;
  mutable to_disk_format : page_id:int -> bytes -> bytes;
  diff_ship_unsafe : (int, unit) Hashtbl.t;
      (* pages whose recovery-buffer baseline is NOT the server's
         current copy — the frame already carried unshipped logged
         writes (object creation, update_object) when the snapshot was
         taken, or a rec-buffer overflow consumed the snapshot without
         a ship. Patching diff regions onto the server's base would
         lose those earlier bytes, so these pages always ship whole.
         Cleared at end of transaction. *)
  mutable snap_mode : bool;  (* faults bind as-of-LSN snapshot bytes *)
  mutable snap_bound : (int * int) list;  (* (vframe, snapshot-pool frame) *)
  stats : stats;
}

let config t = t.config
let client t = t.client
let clock t = t.clock
let cost_model t = t.cm
let stats t = t.stats

let reset_stats t =
  let d = t.stats in
  d.hard_faults <- 0;
  d.soft_faults <- 0;
  d.pages_prefetched <- 0;
  d.write_faults <- 0;
  d.pages_swizzled <- 0;
  d.ptrs_rewritten <- 0;
  d.relocations <- 0;
  d.map_entries_processed <- 0;
  d.mapping_objects_updated <- 0;
  d.pages_diffed <- 0;
  d.diff_log_records <- 0;
  d.rec_buffer_overflows <- 0;
  d.pages_region_shipped <- 0;
  d.region_bytes_shipped <- 0;
  d.pages_ship_fallback <- 0;
  d.pages_ship_skipped <- 0;
  d.snapshot_faults <- 0

let system_name t =
  match (t.config.Qs_config.ptr_format, t.config.Qs_config.mode, t.config.Qs_config.reloc) with
  | Qs_config.Page_offsets, _, _ -> "QS-W"
  | _, Qs_config.Standard, Qs_config.No_reloc -> "QS"
  | _, Qs_config.Big_objects, Qs_config.No_reloc -> "QS-B"
  | _, Qs_config.Standard, Qs_config.Continual _ -> "QS-CR"
  | _, Qs_config.Standard, Qs_config.One_time _ -> "QS-OR"
  | _, Qs_config.Big_objects, Qs_config.Continual _ -> "QS-B-CR"
  | _, Qs_config.Big_objects, Qs_config.One_time _ -> "QS-B-OR"

let ptr_id _t (p : ptr) = p
let charge t cat us = Qs_trace.charge t.clock cat us
let in_txn t = Client.in_txn t.client
let vm t = t.vm
let sanitize_on t = t.config.Qs_config.sanitize

(* ------------------------------------------------------------------ *)
(* Frame allocation: a persistent counter, wrapping into tree gaps.    *)

let counter_key = "qs_frame_counter"
let schema_key = "qs_schema"

let alloc_frames t n =
  if t.frame_counter + n <= Vmsim.frame_count then begin
    let f = t.frame_counter in
    t.frame_counter <- f + n;
    t.counter_dirty <- true;
    f
  end
  else begin
    (* Wraparound: scan the height-balanced tree for a free range
       above the reserved low frames. *)
    match MT.find_gap t.table ~start:16 ~width:n () with
    | Some f -> f
    | None -> raise Address_space_exhausted
  end

let should_relocate t page =
  let fraction = Qs_config.reloc_fraction t.config.Qs_config.reloc in
  if fraction <= 0.0 then false
  else begin
    match Hashtbl.find_opt t.reloc_choice page with
    | Some b -> b
    | None ->
      let b = Qs_util.Rng.float t.reloc_rng 1.0 < fraction in
      Hashtbl.replace t.reloc_choice page b;
      b
  end

(* ------------------------------------------------------------------ *)
(* Meta / mapping / bitmap object I/O.                                 *)

(* Read an object through a page fix of the given I/O kind (mapping
   and bitmap objects are charged to the map-I/O channel). *)
let read_object_kind t ~kind (oid : Oid.t) =
  let frame = Client.fix_page t.client ~kind oid.Oid.page in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page t.client ~frame)
    (fun () ->
      let p = Page.attach (Client.page_bytes t.client ~frame) in
      Page.read_slot p oid.Oid.slot)

let page_meta t bytes =
  ignore t;
  let p = Page.attach bytes in
  Qs_meta.decode_meta (Page.read_slot p Qs_meta.meta_slot)

(* Allocate a small internal object (mapping or bitmap) on the current
   fill page of its chain, starting a new page when full. *)
let alloc_internal_object t ~get_fill ~set_fill data =
  let rec try_page () =
    match get_fill () with
    | Some page_id -> (
      match Client.create_object t.client ~page_id data with
      | Some oid -> oid
      | None ->
        set_fill None;
        try_page ())
    | None ->
      let page_id, frame = Client.new_page t.client ~kind:Page.Small_obj in
      Client.unfix_page t.client ~frame;
      set_fill (Some page_id);
      (match Client.create_object t.client ~page_id data with
       | Some oid -> oid
       | None -> invalid_arg "QuickStore: internal object larger than a page")
  in
  try_page ()

let alloc_mapping_segment t ?next entries ~capacity =
  alloc_internal_object t
    ~get_fill:(fun () -> t.map_fill)
    ~set_fill:(fun v -> t.map_fill <- v)
    (Qs_meta.encode_mapping ?next ~capacity entries)

(* Split an entry list into segments (tail first, so each segment can
   point at its continuation) with some slack for in-place growth. *)
let alloc_mapping_chain t entries =
  let seg_max = Qs_meta.max_segment_capacity in
  let rec split acc l =
    let rec take n xs =
      match (n, xs) with
      | 0, _ | _, [] -> ([], xs)
      | n, x :: rest ->
        let seg, leftover = take (n - 1) rest in
        (x :: seg, leftover)
    in
    match l with
    | [] -> if acc = [] then [ [] ] else acc
    | _ ->
      let seg, rest = take seg_max l in
      split (seg :: acc) rest
  in
  let segments = split [] entries in
  (* [segments] is in reverse order: last segment first. *)
  List.fold_left
    (fun next seg ->
      let n = List.length seg in
      let capacity = min seg_max (max 8 (n + (n / 4) + 2)) in
      Some (alloc_mapping_segment t ?next seg ~capacity))
    None segments
  |> Option.get

(* Read a whole mapping chain: entries plus the per-segment layout
   (oid, capacity) needed for in-place rewrites. *)
let read_mapping_chain t map_oid =
  let rec go oid entries segs =
    if Oid.is_null oid then (List.concat (List.rev entries), List.rev segs)
    else begin
      let b = read_object_kind t ~kind:Server.Map oid in
      go (Qs_meta.mapping_next b)
        (Qs_meta.decode_mapping b :: entries)
        ((oid, Qs_meta.mapping_capacity b) :: segs)
    end
  in
  go map_oid [] []

let delete_mapping_chain t map_oid =
  let rec go oid =
    if not (Oid.is_null oid) then begin
      let b = read_object_kind t ~kind:Server.Map oid in
      Client.delete_object t.client oid;
      go (Qs_meta.mapping_next b)
    end
  in
  go map_oid

(* Rewrite an existing chain in place (entry count fits the summed
   capacities; each segment keeps its size and continuation). *)
let rewrite_mapping_chain t segs entries =
  let rec go segs entries =
    match segs with
    | [] -> assert (entries = [])
    | (oid, capacity) :: rest ->
      let rec take n xs =
        match (n, xs) with
        | 0, _ | _, [] -> ([], xs)
        | n, x :: tl ->
          let seg, leftover = take (n - 1) tl in
          (x :: seg, leftover)
      in
      let seg, leftover = take capacity entries in
      let next = match rest with [] -> Oid.null | (o, _) :: _ -> o in
      Client.update_object t.client oid ~off:0 (Qs_meta.encode_mapping ~next ~capacity seg);
      go rest leftover
  in
  go segs entries

let alloc_bitmap_object t bs =
  alloc_internal_object t
    ~get_fill:(fun () -> t.bitmap_fill)
    ~set_fill:(fun v -> t.bitmap_fill <- v)
    (Qs_meta.encode_bitmap bs)

let load_bitmap t ~page_id ~page_bytes =
  match Hashtbl.find_opt t.bitmaps page_id with
  | Some bs -> bs
  | None ->
    let _, bm_oid = page_meta t page_bytes in
    let bs = Qs_meta.decode_bitmap (read_object_kind t ~kind:Server.Map bm_oid) in
    Hashtbl.replace t.bitmaps page_id bs;
    bs

(* ------------------------------------------------------------------ *)
(* Descriptor materialization from stored mapping entries.             *)

let new_desc ~vframe ~nframes ~phys =
  { MT.vframe
  ; nframes
  ; phys
  ; buf_frame = None
  ; read_this_txn = false
  ; write_enabled = false
  ; snapshot_taken = false
  ; cr_swizzled = false
  ; mem_format = false }

(* Give the target of a mapping entry a descriptor, preferring its
   previous frame; returns the descriptor and whether it was (or had
   earlier been) relocated relative to the entry. *)
let materialize_entry t entry =
  t.stats.map_entries_processed <- t.stats.map_entries_processed + 1;
  charge t Category.Swizzle t.cm.CM.map_entry_us;
  match entry with
  | Qs_meta.E_small { vframe; page } -> (
    match MT.find_by_page t.table page with
    | Some d -> (d, d.MT.vframe <> vframe)
    | None ->
      let relocate = should_relocate t page || not (MT.range_free t.table ~vframe ~n:1) in
      let vf =
        if relocate then begin
          t.stats.relocations <- t.stats.relocations + 1;
          if Qs_trace.enabled t.clock then
            Qs_trace.instant t.clock ~cat:"qs"
              ~args:[ Qs_trace.A_int ("page", page); Qs_trace.A_int ("vframe", vframe) ]
              "relocate";
          alloc_frames t 1
        end
        else vframe
      in
      let d = new_desc ~vframe:vf ~nframes:1 ~phys:(MT.Small_page page) in
      MT.add t.table d;
      (d, vf <> vframe))
  | Qs_meta.E_large { vframe; npages; oid } -> (
    match MT.find_large_head t.table oid with
    | Some head ->
      let base =
        match head.MT.phys with
        | MT.Large_range { first; _ } -> head.MT.vframe - first
        | MT.Small_page _ -> head.MT.vframe
      in
      (head, base <> vframe)
    | None ->
      let free = MT.range_free t.table ~vframe ~n:npages in
      let vf =
        if free then vframe
        else begin
          t.stats.relocations <- t.stats.relocations + 1;
          if Qs_trace.enabled t.clock then
            Qs_trace.instant t.clock ~cat:"qs"
              ~args:[ Qs_trace.A_int ("vframe", vframe); Qs_trace.A_int ("npages", npages) ]
              "relocate";
          alloc_frames t npages
        end
      in
      let d = new_desc ~vframe:vf ~nframes:npages ~phys:(MT.Large_range { oid; first = 0; npages }) in
      MT.add t.table d;
      (d, vf <> vframe))

(* Current base frame of an entry's target (for pointer translation). *)
let current_base t entry =
  match entry with
  | Qs_meta.E_small { page; _ } -> (
    match MT.find_by_page t.table page with Some d -> d.MT.vframe | None -> assert false)
  | Qs_meta.E_large { oid; _ } -> (
    match MT.find_large_head t.table oid with
    | Some head -> (
      match head.MT.phys with
      | MT.Large_range { first; _ } -> head.MT.vframe - first
      | MT.Small_page _ -> head.MT.vframe)
    | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Write-side machinery: recovery buffer, diffing, logging.            *)

(* Diff one page against its snapshot and emit ESM log records. Under
   the page-offsets pointer format both images are converted to disk
   format first so that log records never contain session-local
   virtual addresses. The conversion closure is installed by the
   format-specific setup below (identity for VM addresses). Returns
   the regions and the disk-format current image so the diff-shipping
   commit can reuse the pass it already paid for. *)
let diff_and_log t ~page_id ~frame ~baseline =
  let current = t.to_disk_format ~page_id (Client.page_bytes t.client ~frame) in
  let baseline = t.to_disk_format ~page_id baseline in
  charge t Category.Diff (float_of_int Page.page_size *. t.cm.CM.diff_byte_us);
  let regions =
    Qs_util.Codec.diff_regions ~old_bytes:baseline ~new_bytes:current ~gap:t.config.Qs_config.diff_gap
  in
  if sanitize_on t && not (Qs_util.Codec.regions_cover ~old_bytes:baseline ~new_bytes:current regions)
  then
    San.fail ~check:"diff-shadow"
      ~subject:(Printf.sprintf "page %d" page_id)
      "commit-time diff regions do not reproduce the full-page shadow comparison";
  Qs_trace.charge_n t.clock Category.Diff (List.length regions) t.cm.CM.diff_region_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"qs"
      ~args:[ Qs_trace.A_int ("page", page_id); Qs_trace.A_int ("regions", List.length regions) ]
      "diff.page";
  List.iter
    (fun (off, len) ->
      t.stats.diff_log_records <- t.stats.diff_log_records + 1;
      Client.log_update t.client ~page_id ~frame ~off ~old_data:(Bytes.sub baseline off len)
        ~new_data:(Bytes.sub current off len))
    regions;
  t.stats.pages_diffed <- t.stats.pages_diffed + 1;
  (current, regions)

(* Diff-shipping commit (Qs_config.diff_ship): reuse the regions the
   diff pass just logged to patch the server's copy of the page in
   place, instead of shipping all 8 KB. Sound only when the server's
   current copy equals the diff baseline — guaranteed for pages that
   were clean in the client pool when their snapshot was taken (every
   ship path keeps the server in step with what the client loaded);
   [diff_ship_unsafe] holds the rest, which ship whole. Falls back
   adaptively when the estimated region cost reaches the whole-page
   cost or the diff covers most of the page. Returns true when the
   page no longer needs a whole-page ship. *)
let try_region_ship t ~page_id ~frame ~current ~regions =
  let pool = Client.pool t.client in
  match regions with
  | [] ->
    (* Write-faulted but byte-identical to its snapshot: nothing to
       log, nothing to ship. *)
    Buf_pool.clear_dirty pool frame;
    t.stats.pages_ship_skipped <- t.stats.pages_ship_skipped + 1;
    true
  | _ ->
    let nregions = List.length regions in
    let nbytes = List.fold_left (fun acc (_, len) -> acc + len) 0 regions in
    let est =
      (float_of_int (nregions + 1) *. t.cm.CM.ship_region_us)
      +. (float_of_int (nbytes + 8) *. t.cm.CM.ship_byte_us)
    in
    if est >= t.cm.CM.commit_flush_page_us || 2 * nbytes > Page.page_size then begin
      t.stats.pages_ship_fallback <- t.stats.pages_ship_fallback + 1;
      false
    end
    else begin
      (* The log records just appended stamped the live page's LSN;
         [current] was captured before. Stamp it too, and ship the LSN
         header field as an extra region, so the patched server page
         equals the client page byte-for-byte (whole-page ships keep
         the LSN in step the same way). *)
      let live = Client.page_bytes t.client ~frame in
      Page.set_lsn (Page.attach current) (Page.lsn (Page.attach live));
      let payload =
        (8, Bytes.sub current 8 8)
        :: List.map (fun (off, len) -> (off, Bytes.sub current off len)) regions
      in
      let check = if sanitize_on t then Some current else None in
      Client.ship_regions t.client ~page_id ?check payload;
      Buf_pool.clear_dirty pool frame;
      t.stats.pages_region_shipped <- t.stats.pages_region_shipped + 1;
      t.stats.region_bytes_shipped <- t.stats.region_bytes_shipped + nbytes + 8;
      true
    end

(* Diff and release every snapshot whose page is still resident
   (stolen pages were diffed at eviction). [reprotect] downgrades the
   pages to read-only — the mid-transaction overflow path, which
   leaves the pages dirty and therefore unsafe for a later region
   ship (their next snapshot would no longer match the server). *)
let flush_rec_buffer t ~reprotect =
  let entries = ref [] in
  Rec_buffer.iter (fun ~page_id ~baseline -> entries := (page_id, baseline) :: !entries) t.rec_buf;
  List.iter
    (fun (page_id, baseline) ->
      match Client.frame_of_page t.client page_id with
      | Some frame ->
        let current, regions = diff_and_log t ~page_id ~frame ~baseline in
        if
          t.config.Qs_config.diff_ship && not reprotect
          && not (Hashtbl.mem t.diff_ship_unsafe page_id)
        then ignore (try_region_ship t ~page_id ~frame ~current ~regions);
        ignore (Rec_buffer.take t.rec_buf page_id);
        (match Hashtbl.find_opt t.resident page_id with
         | Some d ->
           d.MT.snapshot_taken <- false;
           if reprotect then begin
             d.MT.write_enabled <- false;
             Vmsim.set_prot t.vm ~frame:d.MT.vframe Vmsim.Prot_read
           end
         | None -> ())
      | None -> ignore (Rec_buffer.take t.rec_buf page_id))
    !entries

let snapshot_page t d ~page_id ~frame =
  if not d.MT.snapshot_taken then begin
    if Rec_buffer.would_overflow t.rec_buf then begin
      t.stats.rec_buffer_overflows <- t.stats.rec_buffer_overflows + 1;
      if Qs_trace.enabled t.clock then
        Qs_trace.instant t.clock ~cat:"qs" ~args:[] "recbuf.overflow";
      flush_rec_buffer t ~reprotect:true
    end;
    (* A frame already dirty here carries logged-but-unshipped writes
       (object creation, update_object, a consumed overflow snapshot):
       the snapshot about to be taken is ahead of the server's copy,
       so the commit-time diff must not be patched onto the server's
       base — the page ships whole. *)
    if t.config.Qs_config.diff_ship && Buf_pool.is_dirty (Client.pool t.client) frame then
      Hashtbl.replace t.diff_ship_unsafe page_id ();
    Rec_buffer.add t.rec_buf page_id (Client.page_bytes t.client ~frame);
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"qs" ~args:[ Qs_trace.A_int ("page", page_id) ] "recbuf.snapshot";
    charge t Category.Write_fault_copy t.cm.CM.write_fault_copy_us;
    d.MT.snapshot_taken <- true
  end

(* ------------------------------------------------------------------ *)
(* The Texas/Wilson pointer format (Qs_config.Page_offsets): pointers
   live on disk as (page, offset) pairs — bit 31 tags large-object
   header pages — so every pointer is swizzled to a virtual address at
   fault time and unswizzled when a dirty page ships. *)

let offsets_mode t =
  match t.config.Qs_config.ptr_format with
  | Qs_config.Page_offsets -> true
  | Qs_config.Vm_addresses -> false

let large_tag = 1 lsl 31

(* Virtual frame for a disk-format target, materializing a fresh
   descriptor if needed (frames are per-session in this format, so
   there is no "previous frame" to prefer). *)
let offsets_target_frame t v =
  if v land large_tag <> 0 then begin
    let header = (v lsr 13) land 0x3FFFF in
    let oid = Oid.make ~page:header ~slot:Large_obj.large_slot ~unique:0 () in
    match MT.find_large_head t.table oid with
    | Some head -> (
      match head.MT.phys with
      | MT.Large_range { first; _ } -> Some (head.MT.vframe - first)
      | MT.Small_page _ -> Some head.MT.vframe)
    | None ->
      let ids =
        match Hashtbl.find_opt t.large_ids header with
        | Some ids -> ids
        | None ->
          let ids = Large_obj.page_ids t.client oid in
          Hashtbl.replace t.large_ids header ids;
          ids
      in
      let n = Array.length ids in
      let vf = alloc_frames t n in
      MT.add t.table (new_desc ~vframe:vf ~nframes:n ~phys:(MT.Large_range { oid; first = 0; npages = n }));
      Some vf
  end
  else begin
    let page = v lsr 13 in
    match MT.find_by_page t.table page with
    | Some d -> Some d.MT.vframe
    | None ->
      let d = new_desc ~vframe:(alloc_frames t 1) ~nframes:1 ~phys:(MT.Small_page page) in
      MT.add t.table d;
      Some d.MT.vframe
  end

(* Apply [f] to every live pointer word of the page (bitmap ∩ live
   slot spans, excluding the slot-0 meta-object). *)
let iter_live_ptr_words t ~page_id ~bytes f =
  let bs = load_bitmap t ~page_id ~page_bytes:bytes in
  let p = Page.attach bytes in
  Page.iter_slots
    (fun ~slot ~off ~len ->
      if slot <> Qs_meta.meta_slot then
        let w0 = (off + 3) / 4 and w1 = (off + len) / 4 in
        for w = w0 to w1 - 1 do
          if Bitset.get bs w then f (w * 4)
        done)
    p

(* Swizzle every pointer on a freshly loaded page to virtual
   addresses. *)
let swizzle_offsets t ~page_id ~frame =
  t.stats.pages_swizzled <- t.stats.pages_swizzled + 1;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"qs" ~args:[ Qs_trace.A_int ("page", page_id) ] "swizzle.page";
  let bytes = Client.page_bytes t.client ~frame in
  iter_live_ptr_words t ~page_id ~bytes (fun off ->
      charge t Category.Swizzle t.cm.CM.swizzle_ptr_us;
      let v = Qs_util.Codec.get_u32 bytes off in
      if v <> 0 then begin
        match offsets_target_frame t v with
        | Some vf ->
          Qs_util.Codec.set_u32 bytes off ((vf lsl 13) lor (v land 8191));
          t.stats.ptrs_rewritten <- t.stats.ptrs_rewritten + 1
        | None -> ()
      end)

(* Disk-format copy of a memory-format page. Unknown frames (stale
   bytes of deleted objects) are left untouched. *)
let unswizzle_copy t ~page_id bytes =
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"qs" ~args:[ Qs_trace.A_int ("page", page_id) ] "unswizzle.page";
  let out = Bytes.copy bytes in
  iter_live_ptr_words t ~page_id ~bytes (fun off ->
      charge t Category.Swizzle t.cm.CM.swizzle_ptr_us;
      let v = Qs_util.Codec.get_u32 out off in
      if v <> 0 then begin
        match MT.find_by_vframe t.table (v lsr 13) with
        | Some { MT.phys = MT.Small_page page; vframe; _ } ->
          ignore vframe;
          Qs_util.Codec.set_u32 out off ((page lsl 13) lor (v land 8191))
        | Some { MT.phys = MT.Large_range { oid; _ }; _ } ->
          Qs_util.Codec.set_u32 out off (large_tag lor (oid.Oid.page lsl 13))
        | None -> ()
      end);
  out

(* ------------------------------------------------------------------ *)
(* The fault handler (§3.1, Figure 5).                                 *)

let data_page_of_desc t d =
  match d.MT.phys with
  | MT.Small_page p -> p
  | MT.Large_range { oid; first; npages } ->
    assert (npages = 1);
    let ids =
      match Hashtbl.find_opt t.large_ids oid.Oid.page with
      | Some ids -> ids
      | None ->
        let ids = Large_obj.page_ids t.client oid in
        Hashtbl.replace t.large_ids oid.Oid.page ids;
        ids
    in
    ids.(first)

(* ------------------------------------------------------------------ *)
(* QSan (Qs_config.sanitize): fail-fast address-space validation, run
   after every serviced fault and at commit. Checks that the mapping
   table, the simulated MMU and the buffer pool tell one consistent
   story: ranges disjoint (§3.3), protection bits matching descriptor
   state (§3.1), residency claims real, bindings physical. Charges
   nothing — QSan observes the simulation, it is not part of it. *)

let validate t =
  MT.validate t.table;
  Vmsim.iter_mapped
    (fun ~frame ~prot:_ ->
      match MT.find_by_vframe t.table frame with
      | Some _ -> ()
      | None ->
        San.fail ~check:"orphan-mapping"
          ~subject:(Printf.sprintf "vframe %d" frame)
          "Vmsim frame bound but no mapping-table descriptor covers it")
    t.vm;
  MT.iter
    (fun d ->
      let subject = Printf.sprintf "vframe %d" d.MT.vframe in
      (match Vmsim.prot t.vm ~frame:d.MT.vframe with
       | Vmsim.Prot_none -> ()
       | Vmsim.Prot_write when not d.MT.write_enabled ->
         San.fail ~check:"prot-escalation" ~subject
           "frame write-enabled in Vmsim but the descriptor never took a write fault"
       | (Vmsim.Prot_read | Vmsim.Prot_write) when d.MT.buf_frame = None ->
         San.fail ~check:"prot-without-residency" ~subject
           "frame accessible in Vmsim but its page is not buffer-resident"
       | Vmsim.Prot_read | Vmsim.Prot_write -> ());
      match d.MT.buf_frame with
      | None ->
        if d.MT.nframes = 1 && Vmsim.is_mapped t.vm ~frame:d.MT.vframe then
          San.fail ~check:"stale-mapping" ~subject
            "descriptor not resident but its frame still carries a Vmsim binding"
      | Some bf -> (
        match d.MT.phys with
        | MT.Large_range { npages; _ } when npages <> 1 ->
          San.fail ~check:"residency-shape" ~subject
            "unsplit %d-page range claims buffer residency" npages
        | MT.Large_range _ | MT.Small_page _ ->
          let page_id = data_page_of_desc t d in
          (match Buf_pool.page_of_frame (Client.pool t.client) bf with
           | Some pid when pid = page_id -> ()
           | Some pid ->
             San.fail ~check:"stale-residency" ~subject
               "descriptor claims pool frame %d, which holds page %d, not page %d" bf pid page_id
           | None ->
             San.fail ~check:"stale-residency" ~subject
               "descriptor claims pool frame %d, which holds no page" bf);
          (match Vmsim.buf_of_frame t.vm ~frame:d.MT.vframe with
           | Some b when b == Client.page_bytes t.client ~frame:bf -> ()
           | Some _ ->
             San.fail ~check:"frame-binding" ~subject
               "Vmsim binding is not the pool frame's buffer (page %d)" page_id
           | None -> ())))
    t.table

(* QSan inside a snapshot body: the regular checks above would
   (rightly) reject snapshot bindings — a vframe bound to as-of-LSN
   pool bytes instead of the resident buffer frame. The snapshot
   invariant is different: every snapshot-bound vframe is frozen,
   read-only and bound to its snapshot-pool frame's bytes, and {e no
   other} mapped frame is accessible (a reachable current-state frame
   would leak post-snapshot bytes into the read). *)
let validate_snapshot t =
  let bound = Hashtbl.create 16 in
  List.iter (fun (vf, fr) -> Hashtbl.replace bound vf fr) t.snap_bound;
  Vmsim.iter_mapped
    (fun ~frame ~prot ->
      let subject = Printf.sprintf "vframe %d" frame in
      match Hashtbl.find_opt bound frame with
      | Some sf ->
        if prot <> Vmsim.Prot_read then
          San.fail ~check:"snapshot-prot" ~subject
            "snapshot-bound frame is not read-only";
        if not (Vmsim.frozen t.vm ~frame) then
          San.fail ~check:"snapshot-frozen" ~subject
            "snapshot-bound frame is not frozen against write escalation";
        (match Vmsim.buf_of_frame t.vm ~frame with
         | Some b when b == Client.snapshot_page_bytes t.client ~frame:sf -> ()
         | Some _ | None ->
           San.fail ~check:"snapshot-binding" ~subject
             "Vmsim binding is not the snapshot pool frame's buffer")
      | None ->
        if prot <> Vmsim.Prot_none then
          San.fail ~check:"snapshot-leak" ~subject
            "current-state frame accessible inside a snapshot body")
    t.vm

(* Prefetch runs only extend across pages this close together on disk:
   contiguously clustered segment neighbors share the faulting page's
   seek; anything further apart would need its own positioning and
   gains nothing from batching. *)
let max_prefetch_page_gap = 8

(* Fault-time prefetch candidates: the contiguously mapped single-frame
   neighbors of [d] (in virtual-address order) whose pages are
   non-resident and follow the faulting page on disk with bounded
   gaps. The run ends at the first descriptor that fails any
   condition — a fetch batch must be one forward disk sweep. *)
let run_candidates t d ~page_id =
  let max_extra = t.config.Qs_config.prefetch_run_max - 1 in
  if max_extra <= 0 then []
  else begin
    let pool = Client.pool t.client in
    let rec keep prev = function
      | [] -> []
      | (d2 : MT.desc) :: rest -> (
        match d2.MT.phys with
        | MT.Small_page p
          when p > prev
               && p - prev <= max_prefetch_page_gap
               && d2.MT.buf_frame = None
               && (not (Hashtbl.mem t.resident p))
               && Buf_pool.lookup pool p = None -> (p, d2) :: keep p rest
        | MT.Small_page _ | MT.Large_range _ -> [])
    in
    keep page_id (MT.contiguous_run t.table ~vframe:d.MT.vframe ~max:max_extra)
  end

(* Ensure the page is in the client buffer pool, pinned (the handler
   performs further I/O — mapping objects, bitmaps — that must not
   evict the page mid-fault); true if I/O happened. The caller unfixes.

   With [prefetch_run_max > 1], a non-resident small data page pulls
   its candidate run along in the same server round trip. The faulting
   page stays pinned as before; prefetched neighbors are installed in
   the mapping table as resident-but-unmapped (their first access is a
   soft fault with no I/O — the whole saving) and unpinned, so they are
   ordinary eviction victims. If the fetch fails, [Client.fix_page_run]
   has already restored the pool and nothing here ran: the mapping
   table never sees a partial run. *)
let ensure_resident_pinned t d =
  let page_id = data_page_of_desc t d in
  let resident =
    match d.MT.buf_frame with
    | Some f when Buf_pool.page_of_frame (Client.pool t.client) f = Some page_id -> true
    | Some _ | None -> false
  in
  let run =
    match d.MT.phys with
    | MT.Small_page _ when (not resident) && t.config.Qs_config.prefetch_run_max > 1 ->
      run_candidates t d ~page_id
    | MT.Small_page _ | MT.Large_range _ -> []
  in
  match run with
  | [] ->
    let f = Client.fix_page t.client ~kind:Server.Data page_id in
    if not resident then begin
      d.MT.buf_frame <- Some f;
      Hashtbl.replace t.resident page_id d
    end;
    (page_id, f, not resident)
  | _ :: _ ->
    let pages = page_id :: List.map fst run in
    let fetch () =
      match Client.fix_page_run t.client ~kind:Server.Data pages with
      | [] -> assert false
      | (_, f) :: prefetched ->
        d.MT.buf_frame <- Some f;
        Hashtbl.replace t.resident page_id d;
        List.iter2
          (fun (p, d2) (_, f2) ->
            d2.MT.buf_frame <- Some f2;
            Hashtbl.replace t.resident p d2;
            t.stats.pages_prefetched <- t.stats.pages_prefetched + 1;
            Client.unfix_page t.client ~frame:f2)
          run prefetched;
        f
    in
    let f =
      if Qs_trace.enabled t.clock then
        Qs_trace.with_span t.clock ~cat:"qs"
          ~args:
            [ Qs_trace.A_int ("page", page_id); Qs_trace.A_int ("pages", List.length pages) ]
          "prefetch" fetch
      else fetch ()
    in
    (page_id, f, true)

(* Swizzle check for a small data page (Figure 5): process the mapping
   object; if any referenced page lost its previous frame, rewrite the
   affected pointers using the bitmap object. *)
let swizzle_check t d ~page_id ~frame =
  let bytes = Client.page_bytes t.client ~frame in
  let map_oid, _bm_oid = page_meta t bytes in
  let entries, _segs = read_mapping_chain t map_oid in
  let mismatches =
    List.filter_map
      (fun e ->
        let _d2, moved = materialize_entry t e in
        if moved then begin
          let old_base = Qs_meta.entry_vframe e in
          let n = Qs_meta.entry_nframes e in
          Some (old_base, old_base + n, current_base t e - old_base)
        end
        else None)
      entries
  in
  if mismatches <> [] then begin
    t.stats.pages_swizzled <- t.stats.pages_swizzled + 1;
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"qs"
        ~args:[ Qs_trace.A_int ("page", page_id); Qs_trace.A_int ("moved", List.length mismatches) ]
        "swizzle.page";
    let bs = load_bitmap t ~page_id ~page_bytes:bytes in
    (* Under one-time relocation the pointer rewrites are real updates:
       snapshot first so commit diffs and logs them. *)
    (match t.config.Qs_config.reloc with
     | Qs_config.One_time _ ->
       snapshot_page t d ~page_id ~frame;
       (* QS012: strict 2PL — the rewrite lock is held to commit; the
          per-pointer swizzle charges below happen under it. *)
       (Client.lock_page t.client page_id Esm.Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
       Client.mark_dirty t.client ~frame;
       Hashtbl.replace t.pending_map_update page_id ()
     | Qs_config.No_reloc | Qs_config.Continual _ -> d.MT.cr_swizzled <- true);
    Bitset.iter_set
      (fun word ->
        charge t Category.Swizzle t.cm.CM.swizzle_ptr_us;
        let off = word * 4 in
        let p = Qs_util.Codec.get_u32 bytes off in
        if p <> 0 then begin
          let f = p lsr 13 in
          match List.find_opt (fun (lo, hi, _) -> f >= lo && f < hi) mismatches with
          | Some (_, _, delta) ->
            Qs_util.Codec.set_u32 bytes off (p + (delta lsl 13));
            t.stats.ptrs_rewritten <- t.stats.ptrs_rewritten + 1
          | None -> ()
        end)
      bs
  end

let enable_access t d =
  Vmsim.map t.vm ~frame:d.MT.vframe
    ~buf:(Client.page_bytes t.client ~frame:(Option.get d.MT.buf_frame));
  Vmsim.set_prot t.vm ~frame:d.MT.vframe
    (if d.MT.write_enabled then Vmsim.Prot_write else Vmsim.Prot_read)

let read_fault t d =
  charge t Category.Fault_misc t.cm.CM.fault_misc_us;
  let page_id, frame, did_io = ensure_resident_pinned t d in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page t.client ~frame)
    (fun () ->
      if did_io then begin
        t.stats.hard_faults <- t.stats.hard_faults + 1;
        Qs_trace.charge_n t.clock Category.Min_fault t.cm.CM.min_faults_per_data_fault
          t.cm.CM.min_fault_us
      end
      else t.stats.soft_faults <- t.stats.soft_faults + 1;
      (match d.MT.phys with
       | MT.Small_page _ ->
         if offsets_mode t then begin
           if not d.MT.mem_format then begin
             swizzle_offsets t ~page_id ~frame;
             d.MT.mem_format <- true
           end
         end
         else if not d.MT.read_this_txn then swizzle_check t d ~page_id ~frame
       | MT.Large_range _ -> ());
      d.MT.read_this_txn <- true;
      (* QS012: strict 2PL — the read lock is held to commit; the
         mmap/protection charges in enable_access follow under it. *)
      (Client.lock_page t.client page_id Esm.Lock_mgr.Shared [@qs_lint.allow "QS012"]);
      enable_access t d)

let write_fault t d =
  t.stats.write_faults <- t.stats.write_faults + 1;
  charge t Category.Fault_misc t.cm.CM.fault_misc_us;
  let page_id, frame, _ = ensure_resident_pinned t d in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page t.client ~frame)
    (fun () ->
      snapshot_page t d ~page_id ~frame;
      charge t Category.Lock_acquire t.cm.CM.lock_upgrade_us;
      (* QS012: strict 2PL — the write lock is held to commit; the
         protection-flip charges in enable_access follow under it. *)
      (Client.lock_page t.client page_id Esm.Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
      Client.mark_dirty t.client ~frame;
      Hashtbl.replace t.pending_map_update page_id ();
      d.MT.write_enabled <- true;
      enable_access t d)

(* A write slipped into a snapshot-read body. *)
exception Snapshot_write of { vframe : int }

let () =
  Printexc.register_printer (function
    | Snapshot_write { vframe } ->
      Some (Printf.sprintf "Store.Snapshot_write(vframe %d)" vframe)
    | _ -> None)

(* The snapshot analogue of [read_fault]: materialize the page as of
   the snapshot LSN into the private snapshot pool
   ({!Client.snapshot_fix_page} — no page lock anywhere on that path)
   and bind the vframe to those bytes read-only and frozen, so no
   later path can escalate them to writable. The recovery buffer is
   never consulted (nothing to undo), [write_enabled] is never armed,
   and the descriptor's main-cache state is left untouched — after the
   snapshot the binding is dropped and the next access soft-faults
   back through [read_fault]. *)
let snapshot_fault t d ~access =
  (match access with
   | Vmsim.Write -> raise (Snapshot_write { vframe = d.MT.vframe })
   | Vmsim.Read -> ());
  charge t Category.Fault_misc t.cm.CM.fault_misc_us;
  match d.MT.phys with
  | MT.Large_range _ ->
    invalid_arg "Store: large objects are not supported under snapshot reads"
  | MT.Small_page page_id ->
    let frame = Client.snapshot_fix_page t.client page_id in
    t.snap_bound <- (d.MT.vframe, frame) :: t.snap_bound;
    t.stats.snapshot_faults <- t.stats.snapshot_faults + 1;
    Vmsim.map t.vm ~frame:d.MT.vframe ~buf:(Client.snapshot_page_bytes t.client ~frame);
    Vmsim.set_prot t.vm ~frame:d.MT.vframe Vmsim.Prot_read;
    Vmsim.freeze t.vm ~frame:d.MT.vframe

let handle_fault t ~frame ~access =
  match MT.find_by_vframe t.table frame with
  | None ->
    (* unmapped address: Vmsim raises Unhandled_fault *)
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"qs" ~args:[ Qs_trace.A_int ("vframe", frame) ] "mt.miss"
  | Some d ->
    if Qs_trace.enabled t.clock then
      Qs_trace.instant t.clock ~cat:"qs"
        ~args:
          [ Qs_trace.A_int ("vframe", frame)
          ; Qs_trace.A_int
              ( "page"
              , match d.MT.phys with
                | MT.Small_page p -> p
                | MT.Large_range { oid; _ } -> oid.Oid.page ) ]
        "mt.hit";
    if t.snap_mode then snapshot_fault t d ~access
    else begin
      let d =
        match d.MT.phys with
        | MT.Small_page _ -> d
        | MT.Large_range { first; npages; _ } ->
          if npages = 1 then d
          else begin
            charge t Category.Fault_misc t.cm.CM.map_entry_us;
            MT.split_large t.table d ~idx:(first + (frame - d.MT.vframe))
          end
      in
      (match Vmsim.prot t.vm ~frame:d.MT.vframe with
       | Vmsim.Prot_none -> read_fault t d
       | Vmsim.Prot_read | Vmsim.Prot_write -> ());
      (match access with
       | Vmsim.Write -> if not d.MT.write_enabled then write_fault t d
       | Vmsim.Read -> ())
    end

(* Eviction hook: called by the client before a page leaves the buffer
   pool. Stolen dirty pages are diffed and logged first (WAL rule);
   the page's virtual frame loses its binding so the next access
   faults. *)
let on_evict t ~frame ~page_id =
  match Hashtbl.find_opt t.resident page_id with
  | None -> ()
  | Some d ->
    (match Rec_buffer.take t.rec_buf page_id with
     | Some baseline ->
       (* The steal path stays whole-page: the eviction write-back that
          follows this hook ships the full frame, which also restores
          the server-equals-baseline invariant for a later refetch. *)
       ignore (diff_and_log t ~page_id ~frame ~baseline);
       d.MT.snapshot_taken <- false
     | None -> ());
    (* A page swizzled without write-back reverts to its disk image on
       reload, so it must be re-checked. *)
    if d.MT.cr_swizzled then begin
      d.MT.read_this_txn <- false;
      d.MT.cr_swizzled <- false
    end;
    (* Page-offset format: convert the buffer back to disk format in
       place before the client ships it (the eviction write-back runs
       after this hook). A reload starts from the disk format again. *)
    if offsets_mode t && d.MT.mem_format then begin
      (match d.MT.phys with
       | MT.Small_page _ ->
         let b = Client.page_bytes t.client ~frame in
         (* In-place format flip of an outgoing page: the one sanctioned
            raw write outside the byte-manipulation core. *)
         (Bytes.blit (unswizzle_copy t ~page_id b) 0 b 0 Page.page_size
          [@qs_lint.allow "QS001"])
       | MT.Large_range _ -> ());
      d.MT.mem_format <- false
    end;
    d.MT.write_enabled <- false;
    d.MT.buf_frame <- None;
    Vmsim.unmap t.vm ~frame:d.MT.vframe;
    Hashtbl.remove t.resident page_id

(* ------------------------------------------------------------------ *)
(* Commit-time mapping maintenance (§3.6 last paragraph).              *)

let entry_of_desc d =
  match d.MT.phys with
  | MT.Small_page page -> Qs_meta.E_small { vframe = d.MT.vframe; page }
  | MT.Large_range { oid; first; npages = _ } ->
    (* Entries always describe the whole object from its base frame. *)
    let base = d.MT.vframe - first in
    Qs_meta.E_large { vframe = base; npages = 0; oid }

let entry_key = function
  | Qs_meta.E_small { page; _ } -> (0, page, 0, 0)
  | Qs_meta.E_large { oid; _ } -> (1, oid.Oid.page, oid.Oid.volume, oid.Oid.unique)

(* Recompute the set of pages referenced by pointers on [page_id] and
   bring its mapping object up to date. *)
let update_mapping_object t ~page_id ~frame =
  charge t Category.Map_update t.cm.CM.map_update_page_us;
  let bytes = Client.page_bytes t.client ~frame in
  let bs = load_bitmap t ~page_id ~page_bytes:bytes in
  let seen = Hashtbl.create 16 in
  let entries = ref [] in
  let self d = entries := entry_of_desc d :: !entries in
  (match MT.find_by_page t.table page_id with
   | Some d ->
     Hashtbl.replace seen (entry_key (entry_of_desc d)) ();
     self d
   | None -> ());
  (* The table does not change inside this walk, so a pointer into the
     previous pointer's frame names the same descriptor, whose entry is
     already in [seen]: only the lookup is skipped, never the charge
     (one per pointer, in order — [charge_n] would round differently). *)
  let prev_frame = ref (-1) in
  Bitset.iter_set
    (fun word ->
      charge t Category.Map_update t.cm.CM.map_update_ptr_us;
      let p = Qs_util.Codec.get_u32 bytes (word * 4) in
      if p <> 0 && p lsr 13 <> !prev_frame then begin
        prev_frame := p lsr 13;
        match MT.find_by_vframe t.table (p lsr 13) with
        | Some d ->
          let e = entry_of_desc d in
          let key = entry_key e in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            entries := e :: !entries
          end
        | None -> ()
      end)
    bs;
  (* Large entries need their page counts; resolve through the head
     descriptor's physical info. *)
  let finalize = function
    | Qs_meta.E_small _ as e -> e
    | Qs_meta.E_large { vframe; oid; _ } ->
      let npages =
        match Hashtbl.find_opt t.large_ids oid.Oid.page with
        | Some ids -> Array.length ids
        | None -> (
          match MT.find_large_head t.table oid with
          | Some { MT.phys = MT.Large_range { npages; first; _ }; _ } when first = 0 -> npages
          | Some _ | None -> 1)
      in
      Qs_meta.E_large { vframe; npages; oid }
  in
  let new_entries = List.rev_map finalize !entries in
  let map_oid, _ = page_meta t bytes in
  let old_entries, segs = read_mapping_chain t map_oid in
  let repr e = (entry_key e, Qs_meta.entry_vframe e, Qs_meta.entry_nframes e) in
  let norm l = List.sort compare (List.map repr l) in
  if norm old_entries <> norm new_entries then begin
    t.stats.mapping_objects_updated <- t.stats.mapping_objects_updated + 1;
    let total_capacity = List.fold_left (fun acc (_, c) -> acc + c) 0 segs in
    if List.length new_entries <= total_capacity then rewrite_mapping_chain t segs new_entries
    else begin
      (* Grow: new chain elsewhere, repoint the page's meta-object. *)
      delete_mapping_chain t map_oid;
      let new_oid = alloc_mapping_chain t new_entries in
      let _, bm_oid = page_meta t bytes in
      let p = Page.attach bytes in
      let off, _ = Page.slot_span p Qs_meta.meta_slot in
      let new_meta = Qs_meta.encode_meta ~mapping:new_oid ~bitmap:bm_oid in
      let old_meta = Page.read_slot p Qs_meta.meta_slot in
      Page.write_slot p ~slot:Qs_meta.meta_slot ~off:0 new_meta;
      if not (Rec_buffer.mem t.rec_buf page_id) then begin
        (* Not snapshotted (e.g. refetched after a steal): log directly. *)
        Client.log_update t.client ~page_id ~frame ~off ~old_data:old_meta ~new_data:new_meta;
        Client.mark_dirty t.client ~frame
      end
    end
  end

let mapping_maintenance t =
  if offsets_mode t then Hashtbl.reset t.pending_map_update;
  let pages = Hashtbl.fold (fun p () acc -> p :: acc) t.pending_map_update [] in
  Hashtbl.reset t.pending_map_update;
  List.iter
    (fun page_id ->
      (* Only QuickStore-mapped small data pages carry mapping info. *)
      match MT.find_by_page t.table page_id with
      | None -> ()
      | Some _ ->
        let frame = Client.fix_page t.client ~kind:Server.Data page_id in
        Fun.protect
          ~finally:(fun () -> Client.unfix_page t.client ~frame)
          (fun () -> update_mapping_object t ~page_id ~frame))
    (List.sort compare pages)

let flush_bitmaps t =
  let pages = Hashtbl.fold (fun p () acc -> p :: acc) t.bitmaps_dirty [] in
  Hashtbl.reset t.bitmaps_dirty;
  List.iter
    (fun page_id ->
      match Hashtbl.find_opt t.bitmaps page_id with
      | None -> ()
      | Some bs ->
        let frame = Client.fix_page t.client ~kind:Server.Data page_id in
        Fun.protect
          ~finally:(fun () -> Client.unfix_page t.client ~frame)
          (fun () ->
            let _, bm_oid = page_meta t (Client.page_bytes t.client ~frame) in
            Client.update_object t.client bm_oid ~off:0 (Qs_meta.encode_bitmap bs)))
    (List.sort compare pages)

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let mk ~config ~server ~meta_page ~schema ~frame_counter =
  let clock = Server.clock server in
  let cm = Server.cost_model server in
  let client = Client.create ~frames:config.Qs_config.client_frames server in
  let vm = Vmsim.create ~clock ~cm () in
  let t =
    { config
    ; client
    ; vm
    ; schema
    ; schema_dirty = false
    ; table = MT.create ()
    ; rec_buf = Rec_buffer.create ~capacity_bytes:config.Qs_config.rec_buffer_bytes
    ; clock
    ; cm
    ; meta_page
    ; frame_counter
    ; counter_dirty = false
    ; map_fill = None
    ; bitmap_fill = None
    ; bitmaps = Hashtbl.create 1024
    ; bitmaps_dirty = Hashtbl.create 64
    ; pending_map_update = Hashtbl.create 64
    ; resident = Hashtbl.create 1024
    ; large_ids = Hashtbl.create 16
    ; reloc_rng = Qs_util.Rng.create config.Qs_config.reloc_seed
    ; reloc_choice = Hashtbl.create 256
    ; indices = Hashtbl.create 8
    ; to_disk_format = (fun ~page_id b -> ignore page_id; b)
    ; diff_ship_unsafe = Hashtbl.create 64
    ; snap_mode = false
    ; snap_bound = []
    ; stats = fresh_stats () }
  in
  Vmsim.set_fault_handler vm (fun ~frame ~access -> handle_fault t ~frame ~access);
  if config.Qs_config.group_commit then Server.set_group_commit server true;
  if config.Qs_config.diff_ship then Server.set_commit_pipeline server true;
  if config.Qs_config.sanitize then begin
    Vmsim.set_post_fault_hook vm (fun ~frame:_ ->
        if t.snap_mode then validate_snapshot t else validate t);
    (* QSan also re-enables the bounds-checked access path. *)
    Vmsim.set_checked vm true
  end;
  (* Callback locking: clean pages survive across transactions with
     their mappings and swizzled pointers intact; server recalls route
     through the pre-evict hook below, so an invalidated page is
     unmapped exactly like an evicted one. Under QSan every retained
     hit is crosschecked byte-exact against the server. *)
  if config.Qs_config.callback_locking then
    Client.enable_callbacks ~sanitize:config.Qs_config.sanitize client;
  if offsets_mode t then begin
    (match config.Qs_config.reloc with
     | Qs_config.No_reloc -> ()
     | Qs_config.Continual _ | Qs_config.One_time _ ->
       invalid_arg "QuickStore: relocation modes apply to VM-address pointers only");
    (* Only small QS data pages hold swizzled pointers; large-object
       pages and internal (bitmap/index/meta) pages ship verbatim. *)
    let disk_format ~page_id b =
      match MT.find_by_page t.table page_id with
      | Some ({ MT.phys = MT.Small_page _; _ } as d) when d.MT.mem_format ->
        unswizzle_copy t ~page_id b
      | Some _ | None -> b
    in
    t.to_disk_format <- disk_format;
    Client.set_pre_ship_hook client disk_format
  end;
  Client.set_pre_evict_hook client (fun ~frame ~page_id -> on_evict t ~frame ~page_id);
  let pick =
    match config.Qs_config.clock_policy with
    | Qs_config.Simplified_clock -> Qs_clock.pick_victim
    | Qs_config.Protecting_clock -> Qs_clock.pick_victim_protecting
  in
  Client.set_victim_policy client
    (Client.External
       (fun c ->
         pick ~pool:(Client.pool c) ~vm ~vframe_of_frame:(fun f ->
             match Buf_pool.page_of_frame (Client.pool c) f with
             | None -> None
             | Some pid ->
               Option.map (fun d -> d.MT.vframe) (Hashtbl.find_opt t.resident pid))));
  t

let create_db ?(config = Qs_config.default) server =
  let clock = Server.clock server in
  ignore clock;
  let boot = Client.create ~frames:8 server in
  Client.begin_txn boot;
  let meta_page = Root_dir.format_db boot in
  Root_dir.set_int boot ~meta_page counter_key 16;
  Client.commit boot;
  mk ~config ~server ~meta_page ~schema:(Schema.create ~repr:Schema.Vm_ptr) ~frame_counter:16

let open_db ?(config = Qs_config.default) server =
  let boot = Client.create ~frames:8 server in
  Client.begin_txn boot;
  let meta_page = 1 in
  let frame_counter =
    match Root_dir.get_int boot ~meta_page counter_key with
    | Some v -> v
    | None -> invalid_arg "Store.open_db: not a QuickStore database"
  in
  let schema =
    match Root_dir.get_oid boot ~meta_page schema_key with
    | Some oid -> Schema.deserialize (Client.read_object boot oid)
    | None -> Schema.create ~repr:Schema.Vm_ptr
  in
  Client.commit boot;
  mk ~config ~server ~meta_page ~schema ~frame_counter

let register_class t def =
  let pad_to =
    match t.config.Qs_config.mode with
    | Qs_config.Standard -> 0
    | Qs_config.Big_objects -> (Schema.layout ~repr:Schema.Oid_ptr def).Schema.l_size
  in
  ignore (Schema.add t.schema ~pad_to def);
  t.schema_dirty <- true

let layout t cls = Schema.find t.schema cls

let field t ~cls ~name =
  let l = layout t cls in
  let i = Schema.field_index l name in
  { fl_layout = l; fl_off = l.Schema.l_offsets.(i); fl_kind = (List.nth l.Schema.l_class.Schema.c_fields i).Schema.f_kind }

(* ------------------------------------------------------------------ *)
(* Transactions.                                                       *)

let persist_schema t =
  if t.schema_dirty then begin
    (match Root_dir.get_oid t.client ~meta_page:t.meta_page schema_key with
     | Some old -> Client.delete_object t.client old
     | None -> ());
    let oid = Client.create_object_new_page t.client (Schema.serialize t.schema) in
    Root_dir.set_oid t.client ~meta_page:t.meta_page schema_key oid;
    t.schema_dirty <- false
  end

let persist_counter t =
  let skip =
    offsets_mode t
    ||
    match t.config.Qs_config.reloc with
    | Qs_config.Continual _ -> true
    | Qs_config.No_reloc | Qs_config.One_time _ -> false
  in
  if t.counter_dirty && not skip then begin
    Root_dir.set_int t.client ~meta_page:t.meta_page counter_key t.frame_counter;
    t.counter_dirty <- false
  end

let end_of_txn t =
  Vmsim.protect_all t.vm;
  Rec_buffer.clear t.rec_buf;
  Hashtbl.reset t.pending_map_update;
  Hashtbl.reset t.diff_ship_unsafe;
  MT.iter
    (fun d ->
      d.MT.read_this_txn <- false;
      d.MT.write_enabled <- false;
      d.MT.snapshot_taken <- false)
    t.table

let begin_txn t = Client.begin_txn t.client

let commit t =
  Qs_trace.with_span t.clock ~cat:"qs" "commit" (fun () ->
      Client.commit t.client ~before_flush:(fun () ->
          persist_schema t;
          Qs_trace.with_span t.clock ~cat:"qs" "commit.bitmaps" (fun () -> flush_bitmaps t);
          Qs_trace.with_span t.clock ~cat:"qs" "commit.map_maint" (fun () ->
              mapping_maintenance t);
          Qs_trace.with_span t.clock ~cat:"qs" "commit.diff" (fun () ->
              flush_rec_buffer t ~reprotect:false);
          persist_counter t;
          (* QSan: the address space must be coherent at the moment the
             commit flush starts — every diff has been taken against it. *)
          if sanitize_on t then validate t));
  end_of_txn t;
  if sanitize_on t then validate t

let abort t =
  (* Drop snapshots first: the eviction hook must not diff-and-log the
     doomed dirty pages while the client releases them. *)
  Rec_buffer.clear t.rec_buf;
  Client.abort t.client;
  Hashtbl.reset t.pending_map_update;
  Hashtbl.reset t.bitmaps_dirty;
  (* Cached bitmaps may reflect aborted creations; drop them. *)
  Hashtbl.reset t.bitmaps;
  end_of_txn t

(* ------------------------------------------------------------------ *)
(* Snapshot reads: the mapped store's read-only mode. The body's page
   faults are served from the client's private snapshot pool
   materialized as of one snapshot LSN, with no page locks anywhere on
   the path — see [snapshot_fault]. The recovery buffer is never
   touched (write faults raise {!Snapshot_write} instead of arming
   write access), so a snapshot body can run concurrently with
   writers without entering the lock manager's waits-for graph. *)

let in_snapshot t = t.snap_mode
let snapshot_lsn t = Client.snapshot_lsn t.client

let with_snapshot_read ?frames ?max_attempts t f =
  if in_txn t then invalid_arg "Store.with_snapshot_read: update transaction active";
  if t.snap_mode then invalid_arg "Store.with_snapshot_read: snapshot already active";
  (match t.config.Qs_config.reloc with
   | Qs_config.No_reloc -> ()
   | Qs_config.Continual _ | Qs_config.One_time _ ->
     invalid_arg "Store.with_snapshot_read: relocation modes rebind pointers mid-read");
  if offsets_mode t then
    invalid_arg "Store.with_snapshot_read: page-offset format swizzles in place";
  Client.with_snapshot_txn ?frames ?max_attempts ~sanitize:(sanitize_on t) t.client
    (fun () ->
      t.snap_mode <- true;
      (* Arm the address space: any access served by a still-accessible
         current-state mapping would leak post-snapshot bytes, so every
         mapped frame loses access and the body faults its pages in as
         of the snapshot LSN. Charged like the end-of-transaction sweep
         it mirrors. *)
      Vmsim.protect_all t.vm;
      Fun.protect
        ~finally:(fun () ->
          t.snap_mode <- false;
          (* Drop the snapshot bindings (unmap clears the frozen flag
             with the mapping) and unpin their pool frames. Resident
             pages whose vframes the snapshot borrowed soft-fault back
             through [read_fault] on their next regular access. *)
          List.iter
            (fun (vframe, frame) ->
              Vmsim.unmap t.vm ~frame:vframe;
              Client.snapshot_unfix_page t.client ~frame)
            t.snap_bound;
          t.snap_bound <- [])
        f)

(* ------------------------------------------------------------------ *)
(* OID conversion, roots, indices.                                     *)

(* Make sure page [p] has a descriptor; reads the page's own mapping
   object for its previous frame if it is new to the table. *)
let ensure_page_mapped t p =
  match MT.find_by_page t.table p with
  | Some d -> d
  | None when offsets_mode t ->
    (* No stored mapping: assign a fresh frame and make the page
       resident so the caller can locate slots. *)
    let frame = Client.fix_page t.client ~kind:Server.Data p in
    Fun.protect
      ~finally:(fun () -> Client.unfix_page t.client ~frame)
      (fun () ->
        let d = new_desc ~vframe:(alloc_frames t 1) ~nframes:1 ~phys:(MT.Small_page p) in
        MT.add t.table d;
        d.MT.buf_frame <- Some frame;
        Hashtbl.replace t.resident p d;
        t.stats.hard_faults <- t.stats.hard_faults + 1;
        d)
  | None ->
    let frame = Client.fix_page t.client ~kind:Server.Data p in
    Fun.protect
      ~finally:(fun () -> Client.unfix_page t.client ~frame)
      (fun () ->
        let bytes = Client.page_bytes t.client ~frame in
        let map_oid, _ = page_meta t bytes in
        let entries, _segs = read_mapping_chain t map_oid in
        let self =
          List.find_opt
            (fun e -> match e with Qs_meta.E_small { page; _ } -> page = p | Qs_meta.E_large _ -> false)
            entries
        in
        let d, _ =
          match self with
          | Some e -> materialize_entry t e
          | None ->
            let d = new_desc ~vframe:(alloc_frames t 1) ~nframes:1 ~phys:(MT.Small_page p) in
            MT.add t.table d;
            (d, true)
        in
        d.MT.buf_frame <- Some frame;
        Hashtbl.replace t.resident p d;
        t.stats.hard_faults <- t.stats.hard_faults + 1;
        d)

let ptr_of_oid t (oid : Oid.t) =
  if Large_obj.is_large oid then begin
    match MT.find_large_head t.table oid with
    | Some head -> (
      match head.MT.phys with
      | MT.Large_range { first; _ } -> (head.MT.vframe - first) lsl 13
      | MT.Small_page _ -> head.MT.vframe lsl 13)
    | None ->
      let ids = Large_obj.page_ids t.client oid in
      Hashtbl.replace t.large_ids oid.Oid.page ids;
      let n = Array.length ids in
      let vf = alloc_frames t n in
      MT.add t.table (new_desc ~vframe:vf ~nframes:n ~phys:(MT.Large_range { oid; first = 0; npages = n }));
      vf lsl 13
  end
  else begin
    let d = ensure_page_mapped t oid.Oid.page in
    let _, frame, did_io = ensure_resident_pinned t d in
    if did_io then t.stats.hard_faults <- t.stats.hard_faults + 1;
    Fun.protect
      ~finally:(fun () -> Client.unfix_page t.client ~frame)
      (fun () ->
        let p = Page.attach (Client.page_bytes t.client ~frame) in
        match Page.slot_span p oid.Oid.slot with
        | off, _len ->
          (* QSan: E-style checked reference (§4.5.2) — the OID's
             uniqueness stamp must match the slot's. QuickStore itself
             never checks; under QSan a stale OID is a violation, not
             a silent wrong answer. *)
          if
            sanitize_on t && oid.Oid.unique <> 0
            && Page.slot_unique p oid.Oid.slot <> oid.Oid.unique
          then
            San.fail ~check:"slot-stamp" ~subject:(Oid.to_string oid)
              "dereferenced OID's stamp does not match slot %d's current stamp %d" oid.Oid.slot
              (Page.slot_unique p oid.Oid.slot);
          (d.MT.vframe lsl 13) lor off
        | exception Not_found ->
          (* QuickStore does not check references (§4.5.2): a dangling
             OID just yields the frame base. *)
          d.MT.vframe lsl 13)
  end

let oid_of_ptr t (p : ptr) =
  if is_null p then Oid.null
  else begin
    let vframe = p lsr 13 in
    let off = p land 8191 in
    match MT.find_by_vframe t.table vframe with
    | None -> invalid_arg "Store.oid_of_ptr: pointer outside the mapping"
    | Some d -> (
      match d.MT.phys with
      | MT.Large_range { oid; _ } -> oid
      | MT.Small_page page_id ->
        (* Touch the page so it is resident, then find the slot whose
           span contains the offset. *)
        ignore (Vmsim.read_u8 t.vm (d.MT.vframe lsl 13));
        let frame = Option.get d.MT.buf_frame in
        let pg = Page.attach (Client.page_bytes t.client ~frame) in
        let found = ref Oid.null in
        Page.iter_slots
          (fun ~slot ~off:o ~len ->
            if off >= o && off < o + len then
              found := Oid.make ~page:page_id ~slot ~unique:(Page.slot_unique pg slot) ())
          pg;
        if Oid.is_null !found then invalid_arg "Store.oid_of_ptr: no object at pointer";
        !found)
  end

let set_root t name p =
  let b = Bytes.create Oid.disk_size in
  Oid.write b 0 (oid_of_ptr t p);
  Root_dir.set t.client ~meta_page:t.meta_page ("root_" ^ name) b

let root t name =
  match Root_dir.get t.client ~meta_page:t.meta_page ("root_" ^ name) with
  | Some b -> ptr_of_oid t (Oid.read b 0)
  | None -> raise Not_found

let index_handle t name =
  match Hashtbl.find_opt t.indices name with
  | Some h -> h
  | None -> (
    match Root_dir.get_int t.client ~meta_page:t.meta_page ("idx_root_" ^ name) with
    | None -> invalid_arg (Printf.sprintf "Store: unknown index %s" name)
    | Some root_page ->
      let klen =
        match Root_dir.get_int t.client ~meta_page:t.meta_page ("idx_klen_" ^ name) with
        | Some k -> k
        | None -> invalid_arg "Store: index missing klen"
      in
      (* The root page's magic byte, not the [log_index] knob, decides
         what this index is — the knob may have changed since creation. *)
      let h =
        if Log_index.is_log_index_root t.client ~root:root_page then
          I_log (Log_index.open_index t.client ~root:root_page ~klen)
        else I_btree (Btree.open_tree t.client ~root:root_page ~klen)
      in
      Hashtbl.replace t.indices name h;
      h)

let index_create t name ~klen =
  (* No kind entry: index_handle dispatches on the root page's magic
     byte, so the root-dir only needs the root and klen. *)
  let h, root =
    if t.config.Qs_config.log_index then
      let li = Log_index.create t.client ~klen in
      (I_log li, Log_index.root li)
    else
      let bt = Btree.create t.client ~klen in
      (I_btree bt, Btree.root bt)
  in
  Root_dir.set_int t.client ~meta_page:t.meta_page ("idx_root_" ^ name) root;
  Root_dir.set_int t.client ~meta_page:t.meta_page ("idx_klen_" ^ name) klen;
  Hashtbl.replace t.indices name h

let index_insert t name ~key p =
  let oid = oid_of_ptr t p in
  match index_handle t name with
  | I_btree bt -> Btree.insert bt ~key ~oid
  | I_log li -> Log_index.insert li ~key ~oid

let index_delete t name ~key p =
  let oid = oid_of_ptr t p in
  match index_handle t name with
  | I_btree bt -> ignore (Btree.delete bt ~key ~oid)
  | I_log li -> ignore (Log_index.delete li ~key ~oid)

let index_lookup t name ~key =
  let oid =
    match index_handle t name with
    | I_btree bt -> Btree.lookup bt ~key
    | I_log li -> Log_index.lookup li ~key
  in
  Option.map (ptr_of_oid t) oid

let index_range t name ~lo ~hi f =
  (* Collect first: the callback will fault pages in, which can evict
     B-tree nodes mid-scan. *)
  let oids = ref [] in
  (match index_handle t name with
  | I_btree bt -> Btree.range bt ~lo ~hi (fun _ oid -> oids := oid :: !oids)
  | I_log li -> Log_index.range li ~lo ~hi (fun _ oid -> oids := oid :: !oids));
  List.iter (fun oid -> f (ptr_of_oid t oid)) (List.rev !oids)

(* ------------------------------------------------------------------ *)
(* Object creation.                                                    *)

let new_cluster _t = { fill = None }

(* A fresh QuickStore data page: meta-object in slot 0, fresh virtual
   frame, write access enabled, snapshot taken right after the header
   so commit-time diffing logs everything placed on it. *)
let new_data_page t =
  let page_id, frame = Client.new_page t.client ~kind:Page.Small_obj in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page t.client ~frame)
    (fun () ->
      (* QS012: strict 2PL — the new page's lock is held to commit; the
         meta-object installation below charges under it. *)
      (Client.lock_page t.client page_id Esm.Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
      let vf = alloc_frames t 1 in
      let d = new_desc ~vframe:vf ~nframes:1 ~phys:(MT.Small_page page_id) in
      MT.add t.table d;
      d.MT.buf_frame <- Some frame;
      Hashtbl.replace t.resident page_id d;
      (* Snapshot the initialized-but-empty page as the diff baseline. *)
      snapshot_page t d ~page_id ~frame;
      let bs = Qs_meta.empty_bitmap () in
      Hashtbl.replace t.bitmaps page_id bs;
      Hashtbl.replace t.bitmaps_dirty page_id ();
      let map_oid =
        (* The offsets format needs no mapping objects: the page ids
           are inside the pointers themselves (Texas's size advantage
           over the VM-address scheme). *)
        if offsets_mode t then Oid.null
        else alloc_mapping_chain t [ Qs_meta.E_small { vframe = vf; page = page_id } ]
      in
      let bm_oid = alloc_bitmap_object t bs in
      let p = Page.attach (Client.page_bytes t.client ~frame) in
      Page.insert_at p ~slot:Qs_meta.meta_slot (Qs_meta.encode_meta ~mapping:map_oid ~bitmap:bm_oid);
      Client.mark_dirty t.client ~frame;
      if not (offsets_mode t) then Hashtbl.replace t.pending_map_update page_id ();
      d.MT.read_this_txn <- true;
      d.MT.write_enabled <- true;
      d.MT.mem_format <- true;
      enable_access t d;
      d)

let create t ~cls ~cluster =
  let l = layout t cls in
  let size = l.Schema.l_size in
  if size + Page.slot_entry_size > Page.page_size - Page.header_size - 64 then
    invalid_arg (Printf.sprintf "Store.create: %s too large for a page" cls);
  let rec place () =
    let d =
      match cluster.fill with
      | Some page_id -> (
        match Hashtbl.find_opt t.resident page_id with
        | Some d -> Some d
        | None -> Some (ensure_page_mapped t page_id))
      | None -> None
    in
    match d with
    | None ->
      let d = new_data_page t in
      (match d.MT.phys with
       | MT.Small_page p -> cluster.fill <- Some p
       | MT.Large_range _ -> assert false);
      place ()
    | Some d ->
      let page_id = data_page_of_desc t d in
      let frame = Option.get d.MT.buf_frame in
      let p = Page.attach (Client.page_bytes t.client ~frame) in
      if size > Page.free_space p then begin
        cluster.fill <- None;
        place ()
      end
      else begin
        (* Write through the VM so the write fault machinery (snapshot,
           X lock, write enable) runs for pre-existing pages. *)
        Vmsim.write_u8 t.vm (d.MT.vframe lsl 13) (Vmsim.read_u8 t.vm (d.MT.vframe lsl 13));
        let slot = Page.insert p (Bytes.make size '\000') in
        let off, _ = Page.slot_span p slot in
        let bs = load_bitmap t ~page_id ~page_bytes:(Page.raw p) in
        Array.iter
          (fun po -> Bitset.set bs ((off + po) / 4))
          (Schema.ptr_offsets l);
        Hashtbl.replace t.bitmaps_dirty page_id ();
        Hashtbl.replace t.pending_map_update page_id ();
        (d.MT.vframe lsl 13) lor off
      end
  in
  place ()

(* ------------------------------------------------------------------ *)
(* Field access: raw virtual-memory dereferences.                      *)

let check_kind fl expected op =
  let ok =
    match (fl.fl_kind, expected) with
    | Schema.F_int, `Int | Schema.F_ptr, `Ptr | Schema.F_chars _, `Chars -> true
    | (Schema.F_int | Schema.F_ptr | Schema.F_chars _), _ -> false
  in
  if not ok then invalid_arg (Printf.sprintf "Store.%s: field kind mismatch" op)

let get_int t p fl =
  check_kind fl `Int "get_int";
  charge t Category.App_deref t.cm.CM.deref_us;
  let v = Vmsim.read_u32 t.vm (p + fl.fl_off) in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let set_int t p fl v =
  check_kind fl `Int "set_int";
  charge t Category.App_deref t.cm.CM.deref_us;
  Vmsim.write_u32 t.vm (p + fl.fl_off) (v land 0xFFFFFFFF)

let get_ptr t p fl =
  check_kind fl `Ptr "get_ptr";
  charge t Category.App_deref t.cm.CM.deref_us;
  Vmsim.read_u32 t.vm (p + fl.fl_off)

let set_ptr t p fl v =
  check_kind fl `Ptr "set_ptr";
  charge t Category.App_deref t.cm.CM.deref_us;
  Vmsim.write_u32 t.vm (p + fl.fl_off) v

let get_chars t p fl =
  check_kind fl `Chars "get_chars";
  charge t Category.App_deref t.cm.CM.deref_us;
  let n = match fl.fl_kind with Schema.F_chars n -> n | Schema.F_int | Schema.F_ptr -> 0 in
  Bytes.to_string (Vmsim.read_bytes t.vm (p + fl.fl_off) n)

let set_chars t p fl s =
  check_kind fl `Chars "set_chars";
  charge t Category.App_deref t.cm.CM.deref_us;
  let n = match fl.fl_kind with Schema.F_chars n -> n | Schema.F_int | Schema.F_ptr -> 0 in
  let b = Bytes.make n '\000' in
  Bytes.blit_string s 0 b 0 (min n (String.length s));
  Vmsim.write_bytes t.vm (p + fl.fl_off) b

(* ------------------------------------------------------------------ *)
(* Large objects.                                                      *)

let create_large t ~size =
  let oid = Large_obj.create t.client ~size in
  let ids = Large_obj.page_ids t.client oid in
  Hashtbl.replace t.large_ids oid.Oid.page ids;
  let n = Array.length ids in
  let vf = alloc_frames t n in
  MT.add t.table (new_desc ~vframe:vf ~nframes:n ~phys:(MT.Large_range { oid; first = 0; npages = n }));
  vf lsl 13

let large_head t p =
  match MT.find_by_vframe t.table (p lsr 13) with
  | Some { MT.phys = MT.Large_range { oid; _ }; _ } -> oid
  | Some { MT.phys = MT.Small_page _; _ } | None ->
    invalid_arg "Store: not a large-object pointer"

let large_size t p = Large_obj.size t.client (large_head t p)

(* Byte [off] of the large object: each data page holds
   [Large_obj.page_payload] content bytes at buffer offset 32. *)
let large_addr p off =
  let idx = off / Large_obj.page_payload in
  let rem = off mod Large_obj.page_payload in
  (((p lsr 13) + idx) lsl 13) + 32 + rem

let large_byte t p off = Char.chr (Vmsim.read_u8 t.vm (large_addr p off))

let large_write t p ~off data =
  Bytes.iteri (fun i c -> Vmsim.write_u8 t.vm (large_addr p (off + i)) (Char.code c)) data

(* ------------------------------------------------------------------ *)
(* Cache control and invariants.                                       *)

let reset_caches t =
  if in_txn t then invalid_arg "Store.reset_caches: transaction active";
  Client.reset_cache t.client;
  Server.reset_cache (Client.server t.client);
  Vmsim.clear t.vm;
  MT.clear t.table;
  Rec_buffer.clear t.rec_buf;
  Hashtbl.reset t.bitmaps;
  Hashtbl.reset t.bitmaps_dirty;
  Hashtbl.reset t.pending_map_update;
  Hashtbl.reset t.resident;
  Hashtbl.reset t.large_ids;
  Hashtbl.reset t.reloc_choice;
  Hashtbl.reset t.indices

let mapping_invariants_hold t = MT.invariants_hold t.table
let mapping_table_size t = MT.cardinal t.table

(* ------------------------------------------------------------------ *)
(* Typed I/O failure propagation.                                      *)

(* A mapped-store access that page-faults runs the whole fault pipeline
   (ensure-resident, map processing, swizzling) under the caller's
   stack frame, so an ESM request that exhausts its retry budget
   surfaces to the application as [Esm.Client.Degraded] — typed, not a
   failwith — from the dereference or commit that triggered it. The
   handler mutates descriptor state only after the client request
   succeeds, so the address space stays consistent; but a degraded
   commit leaves the ship state unknown, so the transaction must be
   abandoned: crash the client/server pair and run restart recovery. *)
let attempt (f : unit -> 'a) : ('a, Esm.Client.degradation) result = Esm.Client.attempt f

let degraded_crash t =
  Client.crash t.client;
  Server.crash (Client.server t.client);
  Vmsim.clear t.vm;
  MT.clear t.table;
  Rec_buffer.clear t.rec_buf;
  Hashtbl.reset t.bitmaps;
  Hashtbl.reset t.bitmaps_dirty;
  Hashtbl.reset t.pending_map_update;
  Hashtbl.reset t.resident;
  Hashtbl.reset t.large_ids;
  Hashtbl.reset t.reloc_choice;
  Hashtbl.reset t.indices
