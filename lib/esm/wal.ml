type record =
  | Begin of int
  | Update of { txn : int; page : int; off : int; old_data : bytes; new_data : bytes }
  | Index_insert of { txn : int; root : int; key : bytes; oid : Oid.t }
  | Index_delete of { txn : int; root : int; key : bytes; oid : Oid.t }
  | Commit of int
  | Abort of int

let header_bytes = 50

let record_bytes = function
  | Begin _ | Commit _ | Abort _ -> header_bytes
  | Update { old_data; new_data; _ } -> header_bytes + Bytes.length old_data + Bytes.length new_data
  | Index_insert { key; _ } | Index_delete { key; _ } -> header_bytes + Bytes.length key + Oid.disk_size

type t = {
  mutable records : record array;
  mutable len : int;
  mutable forced : int;  (* records [0, forced) are durable *)
  mutable base : int;  (* LSNs of dropped (checkpointed) records *)
  mutable total_bytes : int;
  mutable update_bytes : int;
  mutable forced_bytes : int;  (* log bytes already written to disk pages *)
}

let create () =
  { records = Array.make 256 (Begin 0)
  ; len = 0
  ; forced = 0
  ; base = 0
  ; total_bytes = 0
  ; update_bytes = 0
  ; forced_bytes = 0 }

let append t r =
  if t.len = Array.length t.records then begin
    let records = Array.make (2 * t.len) (Begin 0) in
    Array.blit t.records 0 records 0 t.len;
    t.records <- records
  end;
  t.records.(t.len) <- r;
  t.len <- t.len + 1;
  let b = record_bytes r in
  t.total_bytes <- t.total_bytes + b;
  (match r with
   | Update _ -> t.update_bytes <- t.update_bytes + b
   | Begin _ | Commit _ | Abort _ | Index_insert _ | Index_delete _ -> ());
  Int64.of_int (t.base + t.len)

let force t =
  if t.forced = t.len then 0
  else begin
    (* The partially filled last log page is rewritten, so it counts
       again: full pages already durable are the floor of the previous
       forced volume. *)
    let full_pages_before = t.forced_bytes / Page.page_size in
    t.forced <- t.len;
    t.forced_bytes <- t.total_bytes;
    let pages_after = (t.forced_bytes + Page.page_size - 1) / Page.page_size in
    max 0 (pages_after - full_pages_before)
  end

let unforced t = t.len - t.forced

(* Partial force (injected fault): only the first [k] records of the
   unforced tail become durable — the crash that tore the force follows
   immediately, so no I/O cost is charged. *)
let force_upto t k =
  let k = max 0 (min k (t.len - t.forced)) in
  let b = ref 0 in
  for i = t.forced to t.forced + k - 1 do
    b := !b + record_bytes t.records.(i)
  done;
  t.forced <- t.forced + k;
  t.forced_bytes <- t.forced_bytes + !b;
  k

let forced_lsn t = Int64.of_int (t.base + t.forced)
let last_lsn t = Int64.of_int (t.base + t.len)

let iter_forced f t =
  for i = 0 to t.forced - 1 do
    f (Int64.of_int (t.base + i + 1)) t.records.(i)
  done

let iter_all f t =
  for i = 0 to t.len - 1 do
    f (Int64.of_int (t.base + i + 1)) t.records.(i)
  done

let base_lsn t = Int64.of_int t.base

(* Checkpoint truncation: everything so far is durable on disk pages,
   so the records can be dropped. LSNs stay monotonic via [base]. *)
let truncate t =
  t.base <- t.base + t.len;
  t.records <- Array.make 256 (Begin 0);
  t.len <- 0;
  t.forced <- 0

let survive_crash t =
  let s = create () in
  s.base <- t.base;
  for i = 0 to t.forced - 1 do
    ignore (append s t.records.(i))
  done;
  ignore (force s);
  s

let record_count t = t.len
let total_bytes t = t.total_bytes
let update_bytes t = t.update_bytes
let forced_bytes t = t.forced_bytes
