[@@@qs_lint.allow "QS001"] (* the simulated disk itself: page images are its backing store *)

exception Bad_page of { op : string; page : int }

type t = {
  mutable pages : bytes array;  (* index 0 unused; page ids start at 1 *)
  mutable next : int;
  mutable free_list : int list;
  freed : (int, unit) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
  mutable fault : Qs_fault.t option;
}

let create () =
  { pages = Array.make 64 Bytes.empty
  ; next = 1
  ; free_list = []
  ; freed = Hashtbl.create 16
  ; reads = 0
  ; writes = 0
  ; fault = None }

let set_fault t f = t.fault <- Some f

let page_count t = t.next - 1

let ensure_capacity t n =
  if n >= Array.length t.pages then begin
    let cap = ref (Array.length t.pages) in
    while n >= !cap do
      cap := !cap * 2
    done;
    let pages = Array.make !cap Bytes.empty in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end

let alloc t =
  match t.free_list with
  | id :: rest ->
    t.free_list <- rest;
    Hashtbl.remove t.freed id;
    Bytes.fill t.pages.(id) 0 Page.page_size '\000';
    id
  | [] ->
    let id = t.next in
    t.next <- id + 1;
    ensure_capacity t id;
    t.pages.(id) <- Bytes.make Page.page_size '\000';
    id

let is_allocated t id = id >= 1 && id < t.next && not (Hashtbl.mem t.freed id)

let check t id op = if not (is_allocated t id) then raise (Bad_page { op; page = id })

let free t id =
  check t id "free";
  Hashtbl.replace t.freed id ();
  t.free_list <- id :: t.free_list

let gate t ~op id =
  match t.fault with None -> Qs_fault.Io_ok | Some f -> Qs_fault.disk_gate f ~op ~page:id

let read t id dst =
  check t id "read";
  (match gate t ~op:Qs_fault.Read id with
   | Qs_fault.Io_fail -> raise (Qs_fault.Io_error { op = Qs_fault.Read; page = id })
   | Qs_fault.Io_ok | Qs_fault.Io_torn _ -> ());
  t.reads <- t.reads + 1;
  Bytes.blit t.pages.(id) 0 dst 0 Page.page_size

let write t id src =
  check t id "write";
  match gate t ~op:Qs_fault.Write id with
  | Qs_fault.Io_ok ->
    t.writes <- t.writes + 1;
    Bytes.blit src 0 t.pages.(id) 0 Page.page_size
  | Qs_fault.Io_fail -> raise (Qs_fault.Io_error { op = Qs_fault.Write; page = id })
  | Qs_fault.Io_torn n ->
    (* Torn write: the drive persists a prefix of the page body, then
       power is cut. The header sector is written last under ESM's
       discipline, so the old header — including the old page LSN —
       survives, and LSN-guarded redo repairs the whole page. *)
    t.writes <- t.writes + 1;
    let body = Page.page_size - Page.header_size in
    Bytes.blit src Page.header_size t.pages.(id) Page.header_size (min n body);
    let hit =
      match t.fault with
      | Some f -> (match Qs_fault.fired f with Some (_, h) -> h | None -> 0)
      | None -> 0
    in
    raise (Qs_fault.Injected_crash { point = Qs_fault.Point.Disk_torn_write; hit })

(* Sanitizer back door: no fault gate (a peek must never advance the
   injector's RNG or hit a crash point) and no counter bump (peeks are
   not part of the workload being measured). *)
let peek t id dst =
  check t id "peek";
  Bytes.blit t.pages.(id) 0 dst 0 Page.page_size

let reads t = t.reads
let writes t = t.writes

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0

let size_bytes t = (page_count t - List.length t.free_list) * Page.page_size

let save_to_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_binary_int oc (t.next - 1);
      for id = 1 to t.next - 1 do
        let freed = Hashtbl.mem t.freed id in
        output_byte oc (if freed then 1 else 0);
        if not freed then output_bytes oc t.pages.(id)
      done)

let load_from_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let t = create () in
      let n = input_binary_int ic in
      for id = 1 to n do
        let freed = input_byte ic = 1 in
        let got = alloc t in
        assert (got = id);
        if freed then free t id
        else begin
          let b = Bytes.create Page.page_size in
          really_input ic b 0 Page.page_size;
          Bytes.blit b 0 t.pages.(id) 0 Page.page_size
        end
      done;
      reset_counters t;
      t)
