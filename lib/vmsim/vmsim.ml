type prot = Prot_none | Prot_read | Prot_write
type access = Read | Write

let frame_size = 8192
let frame_count = 1 lsl 19

type mapping = { mutable m_prot : prot; mutable m_buf : bytes; mutable m_frozen : bool }

exception Frozen_frame of { frame : int }

let () =
  Printexc.register_printer (function
    | Frozen_frame { frame } -> Some (Printf.sprintf "Vmsim.Frozen_frame(frame %d)" frame)
    | _ -> None)

(* Software TLB: a direct-mapped frame -> mapping cache in front of the
   hashtable, so the protected no-fault access path (the store's hot
   loop) costs two array loads instead of a [Hashtbl.find_opt]. Entries
   share the live [mapping] records, so protection changes through
   [set_prot]/[protect_all] are visible without invalidation; [unmap],
   [clear] and a rebind through [map] invalidate explicitly because the
   record itself goes away. Purely a wall-clock cache: hits occur only
   where the slow path would have succeeded without charging. *)
let tlb_bits = 6
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1
let dummy_mapping = { m_prot = Prot_none; m_buf = Bytes.empty; m_frozen = false }

type t = {
  frames : (int, mapping) Hashtbl.t;
  tlb_tags : int array;  (* frame number per slot, -1 = empty *)
  tlb_maps : mapping array;  (* [dummy_mapping] when the slot is empty *)
  clock : Simclock.Clock.t;
  cm : Simclock.Cost_model.t;
  mutable checked : bool;
  mutable handler : frame:int -> access:access -> unit;
  mutable post_fault : frame:int -> unit;
  mutable faults : int;
}

exception Unhandled_fault of { addr : int; access : access }

let create ~clock ~cm () =
  { frames = Hashtbl.create 4096
  ; tlb_tags = Array.make tlb_size (-1)
  ; tlb_maps = Array.make tlb_size dummy_mapping
  ; clock
  ; cm
  ; checked = false
  ; handler = (fun ~frame ~access -> ignore frame; ignore access)
  ; post_fault = (fun ~frame -> ignore frame)
  ; faults = 0 }

let set_checked t b = t.checked <- b

let tlb_invalidate t frame =
  let i = frame land tlb_mask in
  if t.tlb_tags.(i) = frame then begin
    t.tlb_tags.(i) <- -1;
    t.tlb_maps.(i) <- dummy_mapping
  end

let tlb_flush t =
  Array.fill t.tlb_tags 0 tlb_size (-1);
  Array.fill t.tlb_maps 0 tlb_size dummy_mapping

let frame_of_addr addr = addr lsr 13
let offset_of_addr addr = addr land 8191
let addr_of_frame frame = frame lsl 13

let check_frame frame op =
  if frame < 0 || frame >= frame_count then
    invalid_arg (Printf.sprintf "Vmsim.%s: frame %d out of the 32-bit space" op frame)

let map t ~frame ~buf =
  check_frame frame "map";
  if Bytes.length buf <> frame_size then invalid_arg "Vmsim.map: buffer must be one frame";
  match Hashtbl.find_opt t.frames frame with
  | Some m -> m.m_buf <- buf
  | None ->
    (* A fresh record: any TLB entry for this frame (from a mapping
       since removed) must not survive the rebind. *)
    tlb_invalidate t frame;
    Hashtbl.replace t.frames frame { m_prot = Prot_none; m_buf = buf; m_frozen = false }

let unmap t ~frame =
  tlb_invalidate t frame;
  Hashtbl.remove t.frames frame
let is_mapped t ~frame = Hashtbl.mem t.frames frame

let buf_of_frame t ~frame =
  Option.map (fun m -> m.m_buf) (Hashtbl.find_opt t.frames frame)

let set_prot_free t ~frame p =
  match Hashtbl.find_opt t.frames frame with
  | Some m when m.m_frozen && p = Prot_write -> raise (Frozen_frame { frame })
  | Some m ->
    (* Belt and braces: the TLB shares this record so the new
       protection is visible either way, but dropping the entry keeps
       the invariant simple (a downgrade never survives in any cache). *)
    tlb_invalidate t frame;
    m.m_prot <- p
  | None -> invalid_arg "Vmsim.set_prot: frame not mapped"

let prot_name = function Prot_none -> "none" | Prot_read -> "read" | Prot_write -> "write"

let set_prot t ~frame p =
  Qs_trace.charge t.clock Simclock.Category.Mmap_call t.cm.Simclock.Cost_model.mmap_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"vm"
      ~args:[ Qs_trace.A_int ("frame", frame); Qs_trace.A_str ("prot", prot_name p) ]
      "mmap.protect";
  set_prot_free t ~frame p

let prot t ~frame =
  match Hashtbl.find_opt t.frames frame with Some m -> m.m_prot | None -> Prot_none

(* Frozen frames: the snapshot-read guard. A frozen mapping can be read
   (or downgraded) freely but rejects any escalation to [Prot_write]
   with a typed error, so no code path — fault handler included — can
   accidentally make as-of-LSN snapshot bytes writable. The flag dies
   with the mapping ([unmap]/[clear]); it is deliberately not a
   protection level, so the TLB fast path is untouched. *)

let freeze t ~frame =
  match Hashtbl.find_opt t.frames frame with
  | Some m -> m.m_frozen <- true
  | None -> invalid_arg "Vmsim.freeze: frame not mapped"

let unfreeze t ~frame =
  match Hashtbl.find_opt t.frames frame with
  | Some m -> m.m_frozen <- false
  | None -> invalid_arg "Vmsim.unfreeze: frame not mapped"

let frozen t ~frame =
  match Hashtbl.find_opt t.frames frame with Some m -> m.m_frozen | None -> false

let protect_all t =
  let nframes = Hashtbl.length t.frames in
  (* One syscall plus per-frame page-table maintenance: end-of-
     transaction unmapping cost scales with the mapped working set as
     in the paper, rather than being flat. *)
  Qs_trace.charge t.clock Simclock.Category.Mmap_call t.cm.Simclock.Cost_model.mmap_us;
  if nframes > 0 then
    Qs_trace.charge_n t.clock Simclock.Category.Mmap_call nframes
      t.cm.Simclock.Cost_model.mmap_frame_us;
  if Qs_trace.enabled t.clock then
    Qs_trace.instant t.clock ~cat:"vm"
      ~args:[ Qs_trace.A_int ("frames", nframes) ]
      "mmap.protect_all";
  Hashtbl.iter (fun _ m -> m.m_prot <- Prot_none) t.frames;
  tlb_flush t

let iter_mapped f t = Hashtbl.iter (fun frame m -> f ~frame ~prot:m.m_prot) t.frames

let clear t =
  tlb_flush t;
  Hashtbl.reset t.frames
let set_fault_handler t h = t.handler <- h
let set_post_fault_hook t f = t.post_fault <- f
let fault_count t = t.faults

let allows p a =
  match (p, a) with
  | Prot_write, (Read | Write) -> true
  | Prot_read, Read -> true
  | Prot_read, Write | Prot_none, (Read | Write) -> false

(* Slow path: protection check against the hashtable with
   trap-and-retry. One retry only: a correct handler enables access;
   anything else is a segfault. Successful lookups refill the TLB. *)
let resolve_slow t addr frame a =
  check_frame frame "access";
  let attempt () =
    match Hashtbl.find_opt t.frames frame with
    | Some m when allows m.m_prot a ->
      let i = frame land tlb_mask in
      t.tlb_tags.(i) <- frame;
      t.tlb_maps.(i) <- m;
      Some m.m_buf
    | Some _ | None -> None
  in
  match attempt () with
  | Some buf -> buf
  | None ->
    t.faults <- t.faults + 1;
    (* Trap + handler as one trace span (the closure only exists on
       the fault path; the protected no-fault access stays clean). *)
    let handle () =
      Qs_trace.charge t.clock Simclock.Category.Page_fault t.cm.Simclock.Cost_model.page_fault_us;
      t.handler ~frame ~access:a;
      match attempt () with
      | Some buf ->
        t.post_fault ~frame;
        buf
      | None -> raise (Unhandled_fault { addr; access = a })
    in
    if Qs_trace.enabled t.clock then
      Qs_trace.with_span t.clock ~cat:"vm"
        ~args:
          [ Qs_trace.A_int ("frame", frame)
          ; Qs_trace.A_str ("access", match a with Read -> "read" | Write -> "write") ]
        "fault" handle
    else handle ()

(* Fast path: a TLB hit serves the access with two array loads and no
   allocation. Only frames the slow path admitted are ever tagged, so a
   hit can occur only where the old path succeeded (and charged
   nothing) — simulated time is bit-identical. Out-of-range frames
   (including negative addresses, whose [lsr] yields a huge frame
   number) can never match a tag — only frames [check_frame] admitted
   are tagged, and empty slots hold tag -1 — so they fall through to
   the slow path's [check_frame]. *)
let resolve t addr a =
  let frame = addr lsr 13 in
  let i = frame land tlb_mask in
  if Array.unsafe_get t.tlb_tags i = frame then begin
    let m = Array.unsafe_get t.tlb_maps i in
    if allows m.m_prot a then m.m_buf else resolve_slow t addr frame a
  end
  else resolve_slow t addr frame a

let span_check addr len =
  if len < 0 || offset_of_addr addr + len > frame_size then
    invalid_arg "Vmsim: access crosses a frame boundary"

(* Scalar accessors skip the [Bytes] bounds checks unless [checked]
   (QSan) is set: [map] guarantees every bound buffer is exactly
   [frame_size] bytes and [span_check]/[offset_of_addr] bound the
   offset within the frame, so the checks can never fire. [read_bytes]/
   [write_bytes] keep the safe [sub]/[blit] (they allocate or copy
   anyway, so the check is not the cost). *)

let read_u8 t addr =
  let buf = resolve t addr Read in
  if t.checked then Char.code (Bytes.get buf (offset_of_addr addr))
  else Char.code (Bytes.unsafe_get buf (addr land 8191))

let read_u32 t addr =
  span_check addr 4;
  let buf = resolve t addr Read in
  if t.checked then Qs_util.Codec.get_u32 buf (offset_of_addr addr)
  else Qs_util.Codec.unsafe_get_u32 buf (addr land 8191)

let read_bytes t addr len =
  span_check addr len;
  let buf = resolve t addr Read in
  Bytes.sub buf (offset_of_addr addr) len

let write_u8 t addr v =
  let buf = resolve t addr Write in
  if t.checked then Bytes.set buf (offset_of_addr addr) (Char.chr (v land 0xff))
  else Bytes.unsafe_set buf (addr land 8191) (Char.unsafe_chr (v land 0xff))

let write_u32 t addr v =
  span_check addr 4;
  let buf = resolve t addr Write in
  if t.checked then Qs_util.Codec.set_u32 buf (offset_of_addr addr) v
  else Qs_util.Codec.unsafe_set_u32 buf (addr land 8191) v

let write_bytes t addr data =
  span_check addr (Bytes.length data);
  let buf = resolve t addr Write in
  Bytes.blit data 0 buf (offset_of_addr addr) (Bytes.length data)
