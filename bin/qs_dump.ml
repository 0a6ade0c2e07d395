(* Volume inspector: page census, schema, root directory, QuickStore
   meta-data (mapping objects, bitmaps) and a consistency check
   (every pointer on every QS data page must agree with the page's
   mapping object, and every pointer word must be marked in the
   bitmap). Operates on a volume image saved by oo7_run --save. *)

module Page = Esm.Page
module Disk = Esm.Disk
module Oid = Esm.Oid
module Codec = Qs_util.Codec
module Meta = Quickstore.Qs_meta

let page_census disk =
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let buf = Bytes.create Page.page_size in
  for id = 1 to Disk.page_count disk do
    if Disk.is_allocated disk id then begin
      Disk.read disk id buf;
      match Page.attach buf with
      | p ->
        bump
          (match Page.kind p with
           | Page.Small_obj ->
             (* A QuickStore data page reserves slot 0 for its
                meta-object; internal pages (mapping/bitmap chains) do
                not. *)
             if Page.slot_is_live p 0 && snd (Page.slot_span p 0) = Meta.meta_object_size then
               "data (QS-mapped)"
             else "small-object"
           | Page.Large_part -> "large-object"
           | Page.Btree_node -> "btree"
           | Page.Meta -> "meta"
           | Page.Log_index -> "log-index")
      | exception Invalid_argument _ -> bump "unformatted"
    end
  done;
  counts

let dump_census disk =
  Printf.printf "volume: %d pages, %.2f MB\n" (Disk.page_count disk)
    (float_of_int (Disk.size_bytes disk) /. 1024.0 /. 1024.0);
  Hashtbl.iter (fun k v -> Printf.printf "  %-18s %6d pages\n" k v) (page_census disk)

let dump_roots client meta_page =
  print_endline "root directory:";
  List.iter
    (fun name ->
      match Esm.Root_dir.get client ~meta_page name with
      | Some v -> Printf.printf "  %-24s %d bytes\n" name (Bytes.length v)
      | None -> ())
    (Esm.Root_dir.names client ~meta_page)

let dump_schema client meta_page =
  match Esm.Root_dir.get_oid client ~meta_page "qs_schema" with
  | None -> print_endline "no QuickStore schema object"
  | Some oid ->
    let schema = Schema.deserialize (Esm.Client.read_object client oid) in
    Printf.printf "schema (%s pointers):\n"
      (match Schema.repr schema with Schema.Vm_ptr -> "4-byte VM" | Schema.Oid_ptr -> "16-byte OID");
    List.iter
      (fun cls ->
        let l = Schema.find schema cls in
        Printf.printf "  %-16s %4d bytes, pointer offsets: %s\n" cls l.Schema.l_size
          (String.concat ","
             (Array.to_list (Array.map string_of_int (Schema.ptr_offsets l)))))
      (Schema.classes schema)

(* Consistency check: for every QS data page, decode its mapping chain
   and bitmap, then verify that every non-null pointer word (a) is
   covered by a mapping entry and (b) is marked in the bitmap. *)
let fsck disk =
  let buf = Bytes.create Page.page_size in
  let data_pages = ref 0 and bad_pages = ref 0 and ptrs = ref 0 in
  let read_obj (oid : Oid.t) =
    let b = Bytes.create Page.page_size in
    Disk.read disk oid.Oid.page b;
    Page.read_slot (Page.attach b) oid.Oid.slot
  in
  let rec read_chain oid acc =
    if Oid.is_null oid then List.concat (List.rev acc)
    else begin
      let b = read_obj oid in
      read_chain (Meta.mapping_next b) (Meta.decode_mapping b :: acc)
    end
  in
  for id = 1 to Disk.page_count disk do
    if Disk.is_allocated disk id then begin
      Disk.read disk id buf;
      match Page.attach buf with
      | exception Invalid_argument _ -> ()
      | p ->
        if
          Page.kind p = Page.Small_obj
          && Page.slot_is_live p 0
          && snd (Page.slot_span p 0) = Meta.meta_object_size
        then begin
          incr data_pages;
          let map_oid, bm_oid = Meta.decode_meta (Page.read_slot p 0) in
          if Oid.is_null map_oid then ()  (* page-offset format: pointers carry their own page ids *)
          else begin
          let entries = read_chain map_oid [] in
          let bitmap = Meta.decode_bitmap (read_obj bm_oid) in
          let covered vframe =
            List.exists
              (fun e ->
                let base = Meta.entry_vframe e in
                vframe >= base && vframe < base + Meta.entry_nframes e)
              entries
          in
          let page_ok = ref true in
          Qs_util.Bitset.iter_set
            (fun word ->
              let v = Codec.get_u32 buf (word * 4) in
              if v <> 0 then begin
                incr ptrs;
                if not (covered (v lsr 13)) then begin
                  if !page_ok then
                    Printf.printf "  page %d: pointer at word %d -> frame %d not in mapping object\n"
                      id word (v lsr 13);
                  page_ok := false
                end
              end)
            bitmap;
          if not !page_ok then incr bad_pages
          end
        end
    end
  done;
  Printf.printf "fsck: %d QS data pages, %d pointers checked, %d inconsistent pages\n" !data_pages
    !ptrs !bad_pages;
  !bad_pages = 0

(* Version-chain inspector: chains are volatile server state (rebuilt
   from commits after every restart), so a cold image has none to show.
   To debug what reclamation retains, this section enables versioning
   on the in-memory server, replays a scripted sequence of committed
   single-region updates against the requested page (the image file is
   never written), and prints the chain — base LSN, per-delta region
   spans, bytes retained — before and after a watermark trim. *)
let dump_versions server page =
  let disk = Esm.Server.disk server in
  if page < 1 || page > Disk.page_count disk || not (Disk.is_allocated disk page) then begin
    Printf.printf "page %d is not allocated on this volume\n" page;
    exit 1
  end;
  Esm.Server.set_versioning server true;
  let buf = Bytes.create Page.page_size in
  for v = 1 to 4 do
    let txn = Esm.Server.begin_txn server in
    Esm.Server.read_page server ~txn ~kind:Esm.Server.Data page buf;
    (* One small region per version, clear of the page-LSN header
       (bytes 8-15); offsets vary so the spans are distinguishable. *)
    let off = 128 + (v * 16) in
    let old_data = Bytes.sub buf off 4 in
    for i = 0 to 3 do
      (* server-side scripted update; no VM mapping exists in the dump tool *)
      (Bytes.set [@qs_lint.allow "QS001"]) buf (off + i) (Char.chr (0x40 + v))
    done;
    (* Logged before the ship, as a client logs: the version delta is
       folded from the transaction's Update records. *)
    ignore
      (Esm.Server.log_update server ~txn ~page ~off ~old_data ~new_data:(Bytes.sub buf off 4));
    Esm.Server.write_page server ~txn ~at_commit:false page buf;
    Esm.Server.commit server ~txn
  done;
  let print_chain () =
    match Esm.Server.version_chain server page with
    | None -> Printf.printf "  page %d: no version chain retained\n" page
    | Some c ->
      Printf.printf "  page %d: base LSN %Ld, stable LSN %Ld, %d delta(s), %d bytes retained\n"
        c.Esm.Version_store.cpage c.Esm.Version_store.base_lsn c.Esm.Version_store.stable_lsn
        (List.length c.Esm.Version_store.deltas) c.Esm.Version_store.bytes_retained;
      List.iter
        (fun (d : Esm.Version_store.delta) ->
          Printf.printf "    undoes LSN %Ld -> version %Ld: %s (%d payload bytes)\n"
            d.Esm.Version_store.from_lsn d.Esm.Version_store.to_lsn
            (String.concat ", "
               (List.map
                  (fun (off, b) -> Printf.sprintf "[%d..%d)" off (off + Bytes.length b))
                  d.Esm.Version_store.regions))
            (Esm.Version_store.delta_bytes d))
        c.Esm.Version_store.deltas
  in
  Printf.printf "version chain after 4 scripted committed updates (image not modified):\n";
  print_chain ();
  Printf.printf "after trim with no active snapshots (watermark = log head):\n";
  Esm.Server.trim_versions server;
  print_chain ();
  match Esm.Server.version_stats server with
  | Some s ->
    Printf.printf "version store: pushed=%d dropped=%d trimmed=%d, %d bytes retained overall\n"
      s.Esm.Version_store.deltas_pushed s.Esm.Version_store.deltas_dropped
      s.Esm.Version_store.deltas_trimmed
      (Esm.Server.version_bytes_retained server)
  | None -> ()

(* Index inspector (--index): every index registered in the root
   directory (idx_root_* / idx_klen_* names written by Store), with the
   root page's magic deciding what it is. A log-structured index gets
   the full stats record — generation, log fill, data run size and the
   fan-out table's per-page occupancy, the numbers that say how far the
   run is from its next merge and how balanced the last one was. *)
let dump_index client meta_page =
  let names = Esm.Root_dir.names client ~meta_page in
  let prefix = "idx_root_" in
  let indices =
    List.filter_map
      (fun n ->
        if String.length n > String.length prefix && String.sub n 0 (String.length prefix) = prefix
        then Some (String.sub n (String.length prefix) (String.length n - String.length prefix))
        else None)
      names
  in
  if indices = [] then print_endline "no indices registered in the root directory"
  else
    List.iter
      (fun name ->
        let get k =
          match Esm.Root_dir.get_int client ~meta_page (k ^ name) with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "index %s: missing %s entry" name k)
        in
        let root = get "idx_root_" and klen = get "idx_klen_" in
        if Esm.Log_index.is_log_index_root client ~root then begin
          let li = Esm.Log_index.open_index client ~root ~klen in
          let s = Esm.Log_index.stats li in
          Printf.printf
            "index %-16s log-structured  root=%d klen=%d\n\
            \  generation %d, log %d/%d bindings, data run %d entries on %d pages (%d dir pages)\n"
            name root klen s.Esm.Log_index.generation s.Esm.Log_index.log_len
            s.Esm.Log_index.log_cap s.Esm.Log_index.data_entries s.Esm.Log_index.data_pages
            s.Esm.Log_index.dir_pages;
          let fan = s.Esm.Log_index.fanout in
          if Array.length fan > 0 then begin
            let lo = Array.fold_left min fan.(0) fan in
            let hi = Array.fold_left max fan.(0) fan in
            let sum = Array.fold_left ( + ) 0 fan in
            Printf.printf "  fan-out: %d data pages, %d..%d entries/page (mean %.1f)\n"
              (Array.length fan) lo hi
              (float_of_int sum /. float_of_int (Array.length fan))
          end
          else print_endline "  fan-out: empty (no merged run yet)"
        end
        else begin
          let bt = Esm.Btree.open_tree client ~root ~klen in
          Printf.printf "index %-16s b-tree          root=%d klen=%d\n  %d entries\n" name root
            klen (Esm.Btree.cardinal bt)
        end)
      (List.sort compare indices)

open Cmdliner

let run image what index versions =
  let what = if index then "index" else what in
  let disk = Disk.load_from_file image in
  (* Census and fsck read the disk image directly; the root directory
     and schema need object access, so attach a server and client. *)
  let server =
    Esm.Server.create_with_disk ~disk ~clock:(Simclock.Clock.create ())
      ~cm:Simclock.Cost_model.default ()
  in
  match versions with
  | Some page -> dump_versions server page
  | None ->
  let client = Esm.Client.create ~frames:64 server in
  Esm.Client.begin_txn client;
  (match what with
   | "census" -> dump_census disk
   | "roots" -> dump_roots client 1
   | "schema" -> dump_schema client 1
   | "index" -> dump_index client 1
   | "fsck" -> if not (fsck disk) then exit 1
   | "all" ->
     dump_census disk;
     dump_roots client 1;
     dump_schema client 1;
     dump_index client 1;
     ignore (fsck disk)
   | s -> invalid_arg (Printf.sprintf "unknown section %S" s));
  Esm.Client.commit client

let image_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc:"volume image (oo7_run --save)")

let what_arg =
  Arg.(
    value & opt string "all" & info [ "w"; "what" ] ~doc:"census, roots, schema, index, fsck or all")

let index_arg =
  Arg.(
    value & flag
    & info [ "index" ]
        ~doc:
          "print per-index statistics (shorthand for --what index): kind, generation, log fill, \
           data-run size and fan-out occupancy for log-structured indices; entry count for \
           B-trees.")

let versions_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "versions" ] ~docv:"PAGE"
        ~doc:
          "print PAGE's MVCC version chain (base LSN, per-delta region spans, bytes retained) \
           before and after a watermark trim. Chains are volatile server state, so the dump \
           replays a scripted update sequence against the loaded image in memory; the image \
           file is never modified.")

let cmd =
  Cmd.v
    (Cmd.info "qs_dump" ~doc:"inspect a QuickStore volume image")
    Term.(const run $ image_arg $ what_arg $ index_arg $ versions_arg)

let () = exit (Cmd.eval cmd)
