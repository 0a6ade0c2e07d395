type t = {
  capacity_bytes : int;
  mutable used : int;
  entries : (int, bytes) Hashtbl.t;
}

let create ~capacity_bytes = { capacity_bytes; used = 0; entries = Hashtbl.create 64 }
let capacity_bytes t = t.capacity_bytes
let count t = Hashtbl.length t.entries
let mem t page_id = Hashtbl.mem t.entries page_id
let would_overflow t = t.used + Esm.Page.page_size > t.capacity_bytes

let add t page_id bytes =
  if mem t page_id then invalid_arg "Rec_buffer.add: page already snapshotted";
  if would_overflow t then invalid_arg "Rec_buffer.add: over capacity";
  Hashtbl.replace t.entries page_id (Bytes.copy bytes);
  t.used <- t.used + Esm.Page.page_size

let take t page_id =
  match Hashtbl.find_opt t.entries page_id with
  | None -> None
  | Some b ->
    Hashtbl.remove t.entries page_id;
    t.used <- t.used - Esm.Page.page_size;
    Some b

let iter f t = Hashtbl.iter (fun page_id baseline -> f ~page_id ~baseline) t.entries

let clear t =
  Hashtbl.reset t.entries;
  t.used <- 0

let log_bytes_of_regions regions =
  List.fold_left (fun acc (_, len) -> acc + Esm.Wal.header_bytes + (2 * len)) 0 regions
