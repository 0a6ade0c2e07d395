module Avl = Qs_util.Interval_avl

type phys = Small_page of int | Large_range of { oid : Esm.Oid.t; first : int; npages : int }

type desc = {
  mutable vframe : int;
  mutable nframes : int;
  phys : phys;
  mutable buf_frame : int option;
  mutable read_this_txn : bool;
  mutable write_enabled : bool;
  mutable snapshot_taken : bool;
  mutable cr_swizzled : bool;
  mutable mem_format : bool;
}

type key = K_page of int | K_large of (int * int * int)  (* volume, page, unique of header OID *)

let key_of_oid (o : Esm.Oid.t) = K_large (o.volume, o.page, o.unique)

type t = {
  mutable tree : desc Avl.t;
  hash : (key, desc) Hashtbl.t;
      (* small pages: one binding per page; large objects: the binding
         points at the descriptor containing the object's first page *)
}

let create () = { tree = Avl.empty; hash = Hashtbl.create 4096 }
let cardinal t = Avl.cardinal t.tree

let key_of_desc d =
  match d.phys with Small_page p -> K_page p | Large_range { oid; _ } -> key_of_oid oid

let add t d =
  t.tree <- Avl.add t.tree ~lo:d.vframe ~hi:(d.vframe + d.nframes) d;
  match d.phys with
  | Small_page _ -> Hashtbl.replace t.hash (key_of_desc d) d
  | Large_range { first; _ } -> if first = 0 then Hashtbl.replace t.hash (key_of_desc d) d

let remove t d =
  t.tree <- Avl.remove t.tree ~lo:d.vframe;
  match d.phys with
  | Small_page _ -> Hashtbl.remove t.hash (key_of_desc d)
  | Large_range { first; _ } -> if first = 0 then Hashtbl.remove t.hash (key_of_desc d)

let find_by_vframe t vframe = Avl.find_payload t.tree vframe

let find_by_page t page =
  match Hashtbl.find_opt t.hash (K_page page) with
  | Some d -> Some d
  | None -> None

let find_large_head t oid = Hashtbl.find_opt t.hash (key_of_oid oid)

(* The hash only holds the head descriptor; other ranges of the same
   large object are found by walking the tree from the head's frame.
   Ranges of one object stay within its original contiguous frame run,
   so a bounded scan suffices. *)
let find_by_large t oid ~idx =
  let matches d =
    match d.phys with
    | Large_range { oid = o; first; npages } ->
      Esm.Oid.equal o oid && idx >= first && idx < first + npages
    | Small_page _ -> false
  in
  match find_large_head t oid with
  | None -> None
  | Some head ->
    if matches head then Some head
    else begin
      (* Frames of page index i live at head.vframe - head.first + i
         (the object's range was contiguous when reserved). *)
      let base =
        match head.phys with
        | Large_range { first; _ } -> head.vframe - first
        | Small_page _ -> assert false
      in
      match find_by_vframe t (base + idx) with
      | Some d when matches d -> Some d
      | Some _ | None -> None
    end

let range_free t ~vframe ~n = not (Avl.overlaps t.tree ~lo:vframe ~hi:(vframe + n))

let split_large t d ~idx =
  let oid, first, npages =
    match d.phys with
    | Large_range { oid; first; npages } -> (oid, first, npages)
    | Small_page _ -> invalid_arg "Mapping_table.split_large: small page"
  in
  if idx < first || idx >= first + npages then invalid_arg "Mapping_table.split_large: idx outside";
  if npages = 1 then d
  else begin
    remove t d;
    let base = d.vframe - first in
    let mk f n p =
      { vframe = base + f
      ; nframes = n
      ; phys = p
      ; buf_frame = None
      ; read_this_txn = false
      ; write_enabled = false
      ; snapshot_taken = false
      ; cr_swizzled = false
      ; mem_format = false }
    in
    if idx > first then add t (mk first (idx - first) (Large_range { oid; first; npages = idx - first }));
    let mid = mk idx 1 (Large_range { oid; first = idx; npages = 1 }) in
    add t mid;
    if idx < first + npages - 1 then
      add t
        (mk (idx + 1) (first + npages - 1 - idx)
           (Large_range { oid; first = idx + 1; npages = first + npages - 1 - idx }));
    (* Keep the reverse-mapping entry on whichever descriptor now
       contains page 0. *)
    (match find_by_vframe t base with
     | Some head -> (
       match head.phys with
       | Large_range { first = 0; _ } -> Hashtbl.replace t.hash (key_of_oid oid) head
       | Large_range _ | Small_page _ -> ())
     | None -> ());
    mid
  end

(* Fault-time prefetch: the run of single-frame small-page descriptors
   mapped contiguously after [vframe] (up to [max] of them). A hole in
   the address space or a large-object range ends the run — large
   objects fault by range already, and a hole means the segment's next
   page was never assigned a neighboring frame by the mapping. *)
let contiguous_run t ~vframe ~max =
  let rec go v n acc =
    if n >= max then List.rev acc
    else
      match find_by_vframe t v with
      | Some ({ phys = Small_page _; nframes = 1; _ } as d) when d.vframe = v ->
        go (v + 1) (n + 1) (d :: acc)
      | Some _ | None -> List.rev acc
  in
  go (vframe + 1) 0 []

let find_gap ?start t ~width () = Avl.find_gap ?start t.tree ~width ~limit:Vmsim.frame_count

let iter f t = Avl.iter (fun ~lo:_ ~hi:_ d -> f d) t.tree

let hash_agrees t =
  Hashtbl.fold
    (fun k d acc ->
      acc
      &&
      match (k, d.phys) with
      | K_page p, Small_page p' -> p = p'
      | K_large _, Large_range { first; _ } ->
        (* The hashed large descriptor must contain page 0. *)
        first = 0
      | K_page _, Large_range _ | K_large _, Small_page _ -> false)
    t.hash true

let invariants_hold t = Avl.invariants_hold t.tree && hash_agrees t

(* QSan: like [invariants_hold] but fail-fast with a structured
   report, plus the check the boolean version cannot express — a
   descriptor's mutable [vframe]/[nframes] must still agree with the
   interval the tree filed it under (callers mutate descriptors; a
   drifted one would satisfy the tree's own invariants while lying
   about the range it covers). *)
let validate t =
  if not (Avl.invariants_hold t.tree) then
    Qs_util.Sanitizer.fail ~check:"mapping-overlap" ~subject:"mapping-table"
      "interval tree violates balance/ordering/disjointness";
  if not (hash_agrees t) then
    Qs_util.Sanitizer.fail ~check:"mapping-hash" ~subject:"mapping-table"
      "reverse-mapping hash disagrees with descriptor physical info";
  Avl.iter
    (fun ~lo ~hi d ->
      if d.vframe <> lo || d.vframe + d.nframes <> hi then
        Qs_util.Sanitizer.fail ~check:"mapping-drift"
          ~subject:(Printf.sprintf "vframe %d" d.vframe)
          "descriptor range [%d,%d) drifted from its tree interval [%d,%d)" d.vframe
          (d.vframe + d.nframes) lo hi)
    t.tree

let clear t =
  t.tree <- Avl.empty;
  Hashtbl.reset t.hash
