(* Pass 2 of the whole-program analyzer: per-function effect summaries
   propagated to a fixpoint over the call graph.

   A summary is a small finite lattice of booleans and string sets, so
   the fixpoint (S(f) ⊇ intrinsic(f) ∪ ⋃ S(callee)) terminates even on
   mutual recursion: every iteration either grows some summary or
   stops, and each summary is bounded.

   The intrinsic table below is the analyzer's model of the project's
   primitives. It keys on the trailing one or two identifier
   components, exactly like the per-expression lint rules, so
   [Server.lock], [Esm.Server.lock] and an aliased [S.lock] all
   classify the same way. *)

module SS = Set.Make (String)

type summary = {
  acq_page : bool;  (** acquires a [Lock_mgr.Page_lock] *)
  acq_file : bool;  (** acquires a [Lock_mgr.File_lock] *)
  acq_unknown : bool;  (** acquires a lock of statically unknown class *)
  releases : bool;  (** releases locks ([Lock_mgr.release_all]) *)
  frame_acq : bool;  (** pins a buffer-pool frame *)
  frame_rel : bool;  (** unpins a buffer-pool frame *)
  charges : bool;  (** charges the simulated clock *)
  blocks : bool;  (** can suspend on the scheduler ([Sched.block_on] / a blocking acquire) *)
  disk_read : bool;
  disk_write : bool;
  wal_append : bool;
  wal_force : bool;
  crash_surface : bool;  (** passes a [Qs_fault] hit/gate (a crash can land here) *)
  points : SS.t;  (** crash-point names reachable from here *)
  raises : SS.t;  (** exception constructors this can raise *)
}

let empty =
  { acq_page = false
  ; acq_file = false
  ; acq_unknown = false
  ; releases = false
  ; frame_acq = false
  ; frame_rel = false
  ; charges = false
  ; blocks = false
  ; disk_read = false
  ; disk_write = false
  ; wal_append = false
  ; wal_force = false
  ; crash_surface = false
  ; points = SS.empty
  ; raises = SS.empty }

let union a b =
  { acq_page = a.acq_page || b.acq_page
  ; acq_file = a.acq_file || b.acq_file
  ; acq_unknown = a.acq_unknown || b.acq_unknown
  ; releases = a.releases || b.releases
  ; frame_acq = a.frame_acq || b.frame_acq
  ; frame_rel = a.frame_rel || b.frame_rel
  ; charges = a.charges || b.charges
  ; blocks = a.blocks || b.blocks
  ; disk_read = a.disk_read || b.disk_read
  ; disk_write = a.disk_write || b.disk_write
  ; wal_append = a.wal_append || b.wal_append
  ; wal_force = a.wal_force || b.wal_force
  ; crash_surface = a.crash_surface || b.crash_surface
  ; points = SS.union a.points b.points
  ; raises = SS.union a.raises b.raises }

let equal a b =
  a.acq_page = b.acq_page && a.acq_file = b.acq_file && a.acq_unknown = b.acq_unknown
  && a.releases = b.releases && a.frame_acq = b.frame_acq && a.frame_rel = b.frame_rel
  && a.charges = b.charges && a.blocks = b.blocks && a.disk_read = b.disk_read && a.disk_write = b.disk_write
  && a.wal_append = b.wal_append && a.wal_force = b.wal_force
  && a.crash_surface = b.crash_surface && SS.equal a.points b.points
  && SS.equal a.raises b.raises

let is_empty s = equal s empty

let acquires_any s = s.acq_page || s.acq_file || s.acq_unknown

(* ------------------------------------------------------------------ *)
(* Intrinsics: what a call to a primitive means by itself.             *)

(* Direct classification of an event, used by the rules to anchor
   findings at the call site that *performs* the primitive action
   (as opposed to reaching it transitively through a helper). *)
type direct = {
  d_lock_acquire : bool;
  d_lock_release : bool;
  d_frame_acquire : bool;
  d_frame_release : bool;
  d_wal_force : bool;  (** a direct [Wal.force]/[force_upto] — QS013's subject *)
  d_disk_write : bool;  (** a direct [Disk.write] — QS013's subject *)
}

let no_direct =
  { d_lock_acquire = false
  ; d_lock_release = false
  ; d_frame_acquire = false
  ; d_frame_release = false
  ; d_wal_force = false
  ; d_disk_write = false }

(* A blocking acquisition ([Lock_mgr.acquire_blocking], and [Server.lock]
   through it) parks the task on the scheduler until the grant and can
   be wound out of a waits-for cycle, so it also raises [Deadlock]. *)
let acquire_summary ?(blocking = false) (lock_arg : Callgraph.lock_class option) =
  let raises =
    if blocking then SS.of_list [ "Conflict"; "Deadlock" ] else SS.singleton "Conflict"
  in
  let base = { empty with blocks = blocking; raises } in
  match lock_arg with
  | Some Callgraph.Page -> { base with acq_page = true }
  | Some Callgraph.File -> { base with acq_file = true }
  | None -> { base with acq_unknown = true }

(* [intrinsic ev] is [Some (summary, direct)] when the event's
   identifier names a known primitive, [None] otherwise. The table
   mirrors the project APIs:

   - locks: [Lock_mgr.acquire] (leaf), [Lock_mgr.acquire_blocking] and
     [Server.lock] (blocking entries — these also park on the
     scheduler and can be wound with [Deadlock]),
     [Client.lock_page]/[lock_file] (client entry — these fix the
     class); [Lock_mgr.release_all];
   - scheduler: [Sched.block_on] suspends the task until its condition
     resolves (or raises [Timeout]);
   - frames: [Buf_pool.pin]/[unpin] (leaf),
     [Client.fix_page]/[fix_page_run]/[new_page]/[unfix_page];
   - clock: [Qs_trace.charge]/[charge_n] and the (QS008-restricted)
     [Clock.charge]/[charge_n];
   - I/O: [Disk.read]/[write] (which gate through [Qs_fault.disk_gate]
     internally, hence carry their own crash surface),
     [Wal.append]/[force]/[force_upto];
   - crash points: [Qs_fault.hit]/[disk_gate]/[net_gate];
   - raising: [raise]/[failwith]/[invalid_arg]. *)
let intrinsic (ev : Callgraph.event) =
  let last, penult = Callgraph.last_two ev.Callgraph.comps in
  let point_set = match ev.Callgraph.point_arg with Some p -> SS.singleton p | None -> SS.empty in
  match (penult, last) with
  | Some "Lock_mgr", Some "acquire" ->
    Some (acquire_summary ev.Callgraph.lock_arg, { no_direct with d_lock_acquire = true })
  | Some "Lock_mgr", Some "acquire_blocking" | Some "Server", Some "lock" ->
    Some
      ( acquire_summary ~blocking:true ev.Callgraph.lock_arg
      , { no_direct with d_lock_acquire = true } )
  | Some "Sched", Some "block_on" ->
    Some ({ empty with blocks = true; raises = SS.singleton "Timeout" }, no_direct)
  (* Unqualified matches too: [lock_page p m] inside client.ml is the
     same acquisition as [Client.lock_page] outside it. *)
  | _, Some "lock_page" ->
    Some (acquire_summary (Some Callgraph.Page), { no_direct with d_lock_acquire = true })
  | _, Some "lock_file" ->
    Some (acquire_summary (Some Callgraph.File), { no_direct with d_lock_acquire = true })
  | Some "Lock_mgr", Some "release_all" ->
    Some ({ empty with releases = true }, { no_direct with d_lock_release = true })
  | Some "Buf_pool", Some "pin" ->
    Some ({ empty with frame_acq = true }, { no_direct with d_frame_acquire = true })
  | Some "Client", Some ("fix_page" | "fix_page_run" | "new_page") ->
    Some ({ empty with frame_acq = true }, { no_direct with d_frame_acquire = true })
  | Some "Buf_pool", Some "unpin" | Some "Client", Some "unfix_page" ->
    Some ({ empty with frame_rel = true }, { no_direct with d_frame_release = true })
  | Some ("Qs_trace" | "Clock"), Some ("charge" | "charge_n") ->
    Some ({ empty with charges = true }, no_direct)
  | Some "Disk", Some "read" ->
    Some ({ empty with disk_read = true; crash_surface = true; raises = SS.singleton "Io_error" }, no_direct)
  | Some "Disk", Some "write" ->
    Some
      ( { empty with disk_write = true; crash_surface = true; raises = SS.singleton "Io_error" }
      , { no_direct with d_disk_write = true } )
  | Some "Wal", Some "append" -> Some ({ empty with wal_append = true }, no_direct)
  | Some "Wal", Some ("force" | "force_upto") ->
    Some ({ empty with wal_force = true }, { no_direct with d_wal_force = true })
  | Some "Qs_fault", Some ("hit" | "disk_gate" | "net_gate") ->
    Some ({ empty with crash_surface = true; points = point_set }, no_direct)
  | _, Some _ -> (
    match ev.Callgraph.raise_arg with
    | Some exn -> Some ({ empty with raises = SS.singleton exn }, no_direct)
    | None -> None)
  | _ -> None

let direct_of ev = match intrinsic ev with Some (_, d) -> d | None -> no_direct

(* ------------------------------------------------------------------ *)
(* Fixpoint.                                                           *)

type summaries = (string, summary) Hashtbl.t

let get (t : summaries) key = Option.value ~default:empty (Hashtbl.find_opt t key)

(* When the call site passes a literal lock-class constructor, the
   callee's statically-unknown acquisition refines to that class
   ([Server.lock t p (Page_lock id) m] acquires a page lock, even
   though [Server.lock]'s own summary cannot know that). *)
let refine (lock_arg : Callgraph.lock_class option) s =
  match lock_arg with
  | Some c when s.acq_unknown ->
    let s = { s with acq_unknown = false } in
    (match c with
     | Callgraph.Page -> { s with acq_page = true }
     | Callgraph.File -> { s with acq_file = true })
  | _ -> s

(* The full effect of one event: the primitive's intrinsic meaning
   plus the union of every candidate callee's current summary. *)
let event_summary (cg : Callgraph.t) (t : summaries) ~(caller : Callgraph.func)
    (ev : Callgraph.event) =
  let base = match intrinsic ev with Some (s, _) -> s | None -> empty in
  List.fold_left
    (fun acc key -> union acc (refine ev.Callgraph.lock_arg (get t key)))
    base
    (Callgraph.resolve cg ~caller ev.Callgraph.comps)

let func_summary cg t (f : Callgraph.func) =
  List.fold_left (fun acc ev -> union acc (event_summary cg t ~caller:f ev)) empty
    f.Callgraph.events

let compute (cg : Callgraph.t) : summaries =
  let t : summaries = Hashtbl.create 256 in
  let changed = ref true in
  while !changed do
    changed := false;
    Callgraph.iter_funcs
      (fun f ->
        let s = func_summary cg t f in
        if not (equal s (get t f.Callgraph.fn_key)) then begin
          Hashtbl.replace t f.Callgraph.fn_key s;
          changed := true
        end)
      cg
  done;
  t

(* ------------------------------------------------------------------ *)
(* JSON baseline.                                                      *)

module Json = Qs_util.Json

let json_strings l = "[" ^ String.concat "," (List.map Json.string l) ^ "]"

(* One function's summary as a JSON object. Only flags that are set
   appear (the baseline stays reviewable); [io] gathers the I/O bits.
   No line number: the baseline gates effect drift, not code motion. *)
let summary_json ~name ~file s =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"function\":%s,\"file\":%s" (Json.string name) (Json.string file));
  let acq =
    (if s.acq_page then [ "Page" ] else [])
    @ (if s.acq_file then [ "File" ] else [])
    @ if s.acq_unknown then [ "Unknown" ] else []
  in
  if acq <> [] then Buffer.add_string b (",\"acquires\":" ^ json_strings acq);
  if s.releases then Buffer.add_string b ",\"releases\":true";
  if s.frame_acq then Buffer.add_string b ",\"pins\":true";
  if s.frame_rel then Buffer.add_string b ",\"unpins\":true";
  if s.charges then Buffer.add_string b ",\"charges\":true";
  if s.blocks then Buffer.add_string b ",\"blocks\":true";
  let io =
    (if s.disk_read then [ "disk_read" ] else [])
    @ (if s.disk_write then [ "disk_write" ] else [])
    @ (if s.wal_append then [ "wal_append" ] else [])
    @ if s.wal_force then [ "wal_force" ] else []
  in
  if io <> [] then Buffer.add_string b (",\"io\":" ^ json_strings io);
  if s.crash_surface then Buffer.add_string b ",\"crash_surface\":true";
  if not (SS.is_empty s.points) then
    Buffer.add_string b (",\"crash_points\":" ^ json_strings (SS.elements s.points));
  if not (SS.is_empty s.raises) then
    Buffer.add_string b (",\"raises\":" ^ json_strings (SS.elements s.raises));
  Buffer.add_char b '}';
  Buffer.contents b
