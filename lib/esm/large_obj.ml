[@@@qs_lint.allow "QS001"] (* large-object payload I/O through fixed pool frames (ESM path, not mapped) *)

let page_payload = Page.page_size - 32
let large_slot = 0xFFFF

(* Header page body (after the 32-byte page header):
   32 u32 size in bytes
   36 u32 page count
   40..  data page ids, u32 each.
   Limits objects to ~16 MB, ample for OO7's 1 MB manual. *)

let max_pages = (Page.page_size - 40) / 4

let is_large oid = oid.Oid.slot = large_slot

let check_large oid op =
  if not (is_large oid) then invalid_arg (Printf.sprintf "Large_obj.%s: not a large-object OID" op)

let with_header client oid f =
  check_large oid "access";
  let frame = Client.fix_page client ~kind:Server.Data oid.Oid.page in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page client ~frame)
    (fun () -> f frame (Client.page_bytes client ~frame))

let create client ~size =
  if size < 0 then invalid_arg "Large_obj.create: negative size";
  let npages = max 1 ((size + page_payload - 1) / page_payload) in
  if npages > max_pages then invalid_arg "Large_obj.create: object too big";
  let header_id, hframe = Client.new_page client ~kind:Page.Large_part in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page client ~frame:hframe)
    (fun () ->
      (* QS012: strict 2PL — the header and part-page locks are held to
         commit; the part allocations and log writes charge under them. *)
      (Client.lock_page client header_id Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
      let hb = Client.page_bytes client ~frame:hframe in
      Qs_util.Codec.set_u32 hb 32 size;
      Qs_util.Codec.set_u32 hb 36 npages;
      for i = 0 to npages - 1 do
        let page_id, frame = Client.new_page client ~kind:Page.Large_part in
        Qs_util.Codec.set_u32 hb (40 + (4 * i)) page_id;
        (Client.lock_page client page_id Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
        Client.mark_dirty client ~frame;
        Client.unfix_page client ~frame
      done;
      let hlen = 40 + (4 * npages) - 32 in
      Client.log_update client ~page_id:header_id ~frame:hframe ~off:32
        ~old_data:(Bytes.make hlen '\000')
        ~new_data:(Bytes.sub hb 32 hlen);
      Client.mark_dirty client ~frame:hframe;
      Oid.make ~page:header_id ~slot:large_slot ~unique:0 ())

let size client oid = with_header client oid (fun _ hb -> Qs_util.Codec.get_u32 hb 32)

let page_ids client oid =
  with_header client oid (fun _ hb ->
      let n = Qs_util.Codec.get_u32 hb 36 in
      Array.init n (fun i -> Qs_util.Codec.get_u32 hb (40 + (4 * i))))

(* Iterate the pages overlapping [off, off+len), calling
   [f data_page_id ~page_off ~buf_off ~n]. Page ids come from the
   header, so the header page is fixed during the walk. *)
let iter_span client oid ~off ~len f =
  with_header client oid (fun _ hb ->
      let total = Qs_util.Codec.get_u32 hb 32 in
      if off < 0 || len < 0 || off + len > total then invalid_arg "Large_obj: span out of bounds";
      let first = off / page_payload in
      let last = if len = 0 then first - 1 else (off + len - 1) / page_payload in
      for p = first to last do
        let page_id = Qs_util.Codec.get_u32 hb (40 + (4 * p)) in
        let page_start = p * page_payload in
        let s = max off page_start in
        let e = min (off + len) (page_start + page_payload) in
        f page_id ~page_off:(s - page_start) ~buf_off:(s - off) ~n:(e - s)
      done)

let read client oid ~off ~len =
  let buf = Bytes.create len in
  iter_span client oid ~off ~len (fun page_id ~page_off ~buf_off ~n ->
      let frame = Client.fix_page client ~kind:Server.Data page_id in
      Fun.protect
        ~finally:(fun () -> Client.unfix_page client ~frame)
        (fun () -> Bytes.blit (Client.page_bytes client ~frame) (32 + page_off) buf buf_off n));
  buf

let get_byte client oid off = Bytes.get (read client oid ~off ~len:1) 0

let write client oid ~off data =
  let len = Bytes.length data in
  iter_span client oid ~off ~len (fun page_id ~page_off ~buf_off ~n ->
      let frame = Client.fix_page client ~kind:Server.Data page_id in
      Fun.protect
        ~finally:(fun () -> Client.unfix_page client ~frame)
        (fun () ->
          (* QS012: strict 2PL — held to commit; see create. *)
          (Client.lock_page client page_id Lock_mgr.Exclusive [@qs_lint.allow "QS012"]);
          let b = Client.page_bytes client ~frame in
          let old_data = Bytes.sub b (32 + page_off) n in
          Bytes.blit data buf_off b (32 + page_off) n;
          Client.log_update client ~page_id ~frame ~off:(32 + page_off) ~old_data
            ~new_data:(Bytes.sub data buf_off n);
          Client.mark_dirty client ~frame))
