[@@@qs_lint.allow "QS001"] (* B-tree node codec: raw bytes over fixed node pages, below the VM layer *)

(* Node body layout, after the 32-byte common page header:
   32 u8  is_leaf
   34 u16 nkeys
   36 u32 right sibling (leaves; 0 = none)
   40 u32 leftmost child (internal nodes)
   44 u16 klen (root only)
   46 u16 capacity (root only)
   48..  entries: leaf = key ++ oid(16); internal = key ++ child(4)
   Duplicate keys are allowed; on splits equal keys may straddle the
   separator, so descents always take the leftmost feasible child and
   then follow the leaf chain.

   Nodes are searched and edited in place on the frame bytes. Bytes past
   the last entry are never rewritten (a deleted tail entry, a split
   node's pre-insert tail, a grown root's old body): they are part of
   the page image that diffs and the WAL see. *)

module Codec = Qs_util.Codec

let body = 48

type t = { client : Client.t; root : int; klen : int; cap : int }

let root t = t.root
let klen t = t.klen

let charge_node t =
  let cm = Client.cost_model t.client in
  Qs_trace.charge (Client.clock t.client) Simclock.Category.Index_op
    cm.Simclock.Cost_model.index_cpu_us

let with_page t page_id f =
  let frame = Client.fix_page t.client ~kind:Server.Index page_id in
  Fun.protect
    ~finally:(fun () -> Client.unfix_page t.client ~frame)
    (fun () -> f frame (Client.page_bytes t.client ~frame))

(* A node visit: charged once, then the page is fixed while [f] reads it. *)
let visit t page_id f =
  charge_node t;
  with_page t page_id (fun _frame b -> f b)

let edit t page_id f =
  with_page t page_id (fun frame b ->
      let r = f b in
      Client.mark_dirty t.client ~frame;
      r)

let is_leaf b = Codec.get_u8 b 32 = 1
let nkeys b = Codec.get_u16 b 34
let right_sib b = Codec.get_u32 b 36
let leftmost b = Codec.get_u32 b 40
let entry_size t ~leaf = t.klen + if leaf then Oid.disk_size else 4

let set_header b ~leaf ~n ~sib ~lm =
  Codec.set_u8 b 32 (if leaf then 1 else 0);
  Codec.set_u16 b 34 n;
  Codec.set_u32 b 36 sib;
  Codec.set_u32 b 40 lm

let new_node client =
  let page_id, frame = Client.new_page client ~kind:Page.Btree_node in
  Client.unfix_page client ~frame;
  page_id

let write_root_meta t =
  edit t t.root (fun b ->
      Codec.set_u16 b 44 t.klen;
      Codec.set_u16 b 46 t.cap)

let create ?cap client ~klen =
  if klen < 1 || klen > 64 then invalid_arg "Btree.create: bad klen";
  let full = (Page.page_size - body) / (klen + Oid.disk_size) in
  let cap = match cap with None -> full | Some c -> min (max c 3) full in
  let page_id = new_node client in
  let t = { client; root = page_id; klen; cap } in
  edit t page_id (fun b -> set_header b ~leaf:true ~n:0 ~sib:0 ~lm:0);
  write_root_meta t;
  t

let open_tree client ~root ~klen =
  let t0 = { client; root; klen; cap = 3 } in
  with_page t0 root (fun _frame b ->
      let stored_klen = Codec.get_u16 b 44 in
      let cap = Codec.get_u16 b 46 in
      if stored_klen <> klen then invalid_arg "Btree.open_tree: klen mismatch";
      { client; root; klen; cap })

(* Unsigned bytewise order of [n] bytes at [a.(ao)] and [b.(bo)]: the
   order [Bytes.compare] gives equal-length keys. *)
let rec compare_at a ao b bo n i =
  if i = n then 0
  else
    let c = Char.code (Bytes.get a (ao + i)) - Char.code (Bytes.get b (bo + i)) in
    if c <> 0 then c else compare_at a ao b bo n (i + 1)

let cmp_key t b off key = compare_at b off key 0 t.klen 0

(* First entry in [lo, hi) whose key is > [key] ([~upper:true]) or
   >= [key] ([~upper:false]), for entries of [es] bytes. *)
let rec bound t b es key ~upper lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let c = cmp_key t b (body + (mid * es)) key in
    if c < 0 || (upper && c = 0) then bound t b es key ~upper (mid + 1) hi
    else bound t b es key ~upper lo mid

(* The child of an internal node to descend into for [key]. Reads take
   the leftmost child whose subtree can contain it ([~upper:false]; see
   the duplicates note above). Insertion descends to the right of
   separators EQUAL to the key ([~upper:true]): a new duplicate must
   land after every existing equal pair, or a split whose separator
   equals the key would put later inserts mid-run and break within-key
   insertion order. *)
let child t b key ~upper =
  let es = entry_size t ~leaf:false in
  let p = bound t b es key ~upper 0 (nkeys b) in
  if p = 0 then leftmost b else Codec.get_u32 b (body + ((p - 1) * es) + t.klen)

let oid_at b off (o : Oid.t) =
  Codec.get_u32 b off = o.volume
  && Codec.get_u32 b (off + 4) = o.page
  && Codec.get_u16 b (off + 8) = o.slot
  && Codec.get_u32 b (off + 10) = o.unique

(* Where the exact (key, oid) pair sits in a leaf: its index; [-1] when
   a greater key proves it absent; [-2] when the leaf ran out, so the
   equal run may go on in the right sibling. *)
let rec scan_pair t b es key oid i n =
  if i >= n then -2
  else
    let off = body + (i * es) in
    let c = cmp_key t b off key in
    if c > 0 then -1
    else if c = 0 && oid_at b (off + t.klen) oid then i
    else scan_pair t b es key oid (i + 1) n

let leaf_pair t b key oid =
  let es = entry_size t ~leaf:true and n = nkeys b in
  scan_pair t b es key oid (bound t b es key ~upper:false 0 n) n

(* Descend from [page_id] to the leftmost leaf that can contain [key];
   [leaf page_id b] runs on that leaf's bytes while it is fixed. *)
let rec to_leaf t page_id key leaf =
  match
    visit t page_id (fun b ->
        if is_leaf b then Either.Right (leaf page_id b) else Either.Left (child t b key ~upper:false))
  with
  | Either.Left c -> to_leaf t c key leaf
  | Either.Right r -> r

(* The leaf page and entry index of the exact (key, oid) pair; the index
   is negative when the pair is absent. The equal-key run can span
   several leaves, so this follows the sibling chain rather than
   trusting a single leaf (which is all [ins] sees). *)
let find_pair t key oid =
  let probe page_id b = (page_id, leaf_pair t b key oid, right_sib b) in
  let rec chase (page_id, i, sib) =
    if i = -2 && sib <> 0 then chase (visit t sib (probe sib)) else (page_id, i)
  in
  chase (to_leaf t t.root key probe)

(* Split a full node around the pending entry ([key], then the value
   [put] writes). The merged entries need not fit one page (a full
   leaf), so the right half is assembled in a scratch buffer before the
   left half is edited in place. Returns the separator for the parent. *)
let split t page_id key put =
  let right_id = new_node t.client in
  let leaf, sib, half =
    edit t page_id (fun b ->
        let leaf = is_leaf b and n = nkeys b and sib = right_sib b in
        let es = entry_size t ~leaf in
        let at j = body + (j * es) in
        let h = (n + 1) / 2 and i = bound t b es key ~upper:true 0 n in
        let put_new dst off =
          Bytes.blit key 0 dst off t.klen;
          put dst (off + t.klen)
        in
        (* [half] gets merged entries [h, n]; merged entry j is old
           entry j below [i], the pending one at [i], old j - 1 above. *)
        let half = Bytes.create ((n + 1 - h) * es) in
        if i >= h then begin
          Bytes.blit b (at h) half 0 ((i - h) * es);
          put_new half ((i - h) * es);
          Bytes.blit b (at i) half ((i - h + 1) * es) ((n - i) * es)
        end
        else begin
          Bytes.blit b (at (h - 1)) half 0 ((n + 1 - h) * es);
          Bytes.blit b (at i) b (at (i + 1)) ((h - 1 - i) * es);
          put_new b (at i)
        end;
        Codec.set_u16 b 34 h;
        if leaf then Codec.set_u32 b 36 right_id;
        (leaf, sib, half))
  in
  let es = entry_size t ~leaf in
  let m = Bytes.length half / es in
  (* An internal right half moves the separator's child to [leftmost]. *)
  edit t right_id (fun b ->
      if leaf then begin
        set_header b ~leaf ~n:m ~sib ~lm:0;
        Bytes.blit half 0 b body (m * es)
      end
      else begin
        set_header b ~leaf ~n:(m - 1) ~sib:0 ~lm:(Codec.get_u32 half t.klen);
        Bytes.blit half es b body ((m - 1) * es)
      end);
  (Bytes.sub half 0 t.klen, right_id)

(* Add one entry to a node that held [n] entries when visited: shift
   the tail up in place, or split when the node is full. *)
let add t page_id ~n key put =
  if n < t.cap then begin
    edit t page_id (fun b ->
        let es = entry_size t ~leaf:(is_leaf b) in
        let off = body + (bound t b es key ~upper:true 0 n * es) in
        Bytes.blit b off b (off + es) ((n * es) + body - off);
        Bytes.blit key 0 b off t.klen;
        put b (off + t.klen);
        Codec.set_u16 b 34 (n + 1));
    None
  end
  else Some (split t page_id key put)

type step = Present | Leaf | Child of int

let rec ins t page_id key oid =
  let n, step =
    visit t page_id (fun b ->
        ( nkeys b
        , if not (is_leaf b) then Child (child t b key ~upper:true)
          else if leaf_pair t b key oid >= 0 then Present
          else Leaf ))
  in
  match step with
  | Present -> None
  | Leaf -> add t page_id ~n key (fun b off -> Oid.write b off oid)
  | Child c -> (
    match ins t c key oid with
    | None -> None
    | Some (sep, right_id) -> add t page_id ~n sep (fun b off -> Codec.set_u32 b off right_id))

(* The root page id must stay stable, so on a root split the (already
   halved) root content moves to a fresh page and the root becomes an
   internal node over the two halves. *)
let grow_root t (sep, right_id) =
  let leaf, n, sib, lm, entries =
    visit t t.root (fun b ->
        let leaf = is_leaf b and n = nkeys b in
        (leaf, n, right_sib b, leftmost b, Bytes.sub b body (n * entry_size t ~leaf)))
  in
  let moved = new_node t.client in
  edit t moved (fun b ->
      set_header b ~leaf ~n ~sib ~lm;
      Bytes.blit entries 0 b body (Bytes.length entries));
  edit t t.root (fun b ->
      set_header b ~leaf:false ~n:1 ~sib:0 ~lm:moved;
      Bytes.blit sep 0 b body t.klen;
      Codec.set_u32 b (body + t.klen) right_id);
  write_root_meta t

let insert_nolog t ~key ~oid =
  if Bytes.length key <> t.klen then invalid_arg "Btree.insert: wrong key length";
  if snd (find_pair t key oid) >= 0 then false
  else begin
    (match ins t t.root key oid with None -> () | Some promo -> grow_root t promo);
    true
  end

let insert t ~key ~oid =
  (* Log only when something was inserted: the logical record's abort
     inversion is a real delete, so logging an idempotent no-op
     re-insert would let an abort destroy a committed binding. *)
  if insert_nolog t ~key ~oid then
    ignore
      (Server.log_index (Client.server t.client) ~txn:(Client.txn_id t.client)
         (Wal.Index_insert { txn = Client.txn_id t.client; root = t.root; key = Bytes.copy key; oid }))

let delete_nolog t ~key ~oid =
  if Bytes.length key <> t.klen then invalid_arg "Btree.delete: wrong key length";
  let page_id, i = find_pair t key oid in
  i >= 0
  && begin
    edit t page_id (fun b ->
        let es = entry_size t ~leaf:true and n = nkeys b in
        let off = body + (i * es) in
        Bytes.blit b (off + es) b off ((n - 1 - i) * es);
        Codec.set_u16 b 34 (n - 1));
    true
  end

let delete t ~key ~oid =
  let present = delete_nolog t ~key ~oid in
  if present then
    ignore
      (Server.log_index (Client.server t.client) ~txn:(Client.txn_id t.client)
         (Wal.Index_delete { txn = Client.txn_id t.client; root = t.root; key = Bytes.copy key; oid }));
  present

(* A leaf's entries from [i] on, copied out with its right sibling: [f]
   may touch pages, so no page stays fixed while it runs. *)
let leaf_tail t b i =
  let es = entry_size t ~leaf:true in
  (Bytes.sub b (body + (i * es)) ((nkeys b - i) * es), right_sib b)

let iter_from t key ~f =
  (* [f key oid] returns [false] to stop the scan. *)
  let es = entry_size t ~leaf:true in
  let rec walk (tail, sib) =
    let rec yield off =
      if off >= Bytes.length tail then begin
        if sib <> 0 then walk (visit t sib (fun b -> leaf_tail t b 0))
      end
      else if f (Bytes.sub tail off t.klen) (Oid.read tail (off + t.klen)) then yield (off + es)
    in
    yield 0
  in
  walk (to_leaf t t.root key (fun _ b -> leaf_tail t b (bound t b es key ~upper:false 0 (nkeys b))))

let lookup t ~key =
  let result = ref None in
  iter_from t key ~f:(fun k oid ->
      if Bytes.equal k key then result := Some oid;
      false);
  !result

let lookup_all t ~key =
  let acc = ref [] in
  iter_from t key ~f:(fun k oid ->
      let hit = Bytes.equal k key in
      if hit then acc := oid :: !acc;
      hit);
  List.rev !acc

let range t ~lo ~hi f =
  iter_from t lo ~f:(fun k oid ->
      if Bytes.compare k hi > 0 then false
      else begin
        if Bytes.compare k lo >= 0 then f k oid;
        true
      end)

let cardinal t =
  let n = ref 0 in
  iter_from t (Bytes.make t.klen '\000') ~f:(fun _ _ ->
      incr n;
      true);
  !n

let invariants_hold t =
  let ok = ref true in
  let check b = if not b then ok := false in
  let rec depth_of page_id =
    match visit t page_id (fun b -> if is_leaf b then None else Some (leftmost b)) with
    | None -> 0
    | Some c -> 1 + depth_of c
  in
  let depth = depth_of t.root in
  (* A node's keys are sorted and within [lo, hi]; its children, each
     with the bound below it, are checked once it is unfixed. *)
  let rec go page_id level lo hi =
    let leaf, kids =
      visit t page_id (fun b ->
          let leaf = is_leaf b and n = nkeys b in
          let at i = body + (i * entry_size t ~leaf) in
          for i = 0 to n - 1 do
            if i + 1 < n then check (compare_at b (at i) b (at (i + 1)) t.klen 0 <= 0);
            Option.iter (fun l -> check (cmp_key t b (at i) l >= 0)) lo;
            Option.iter (fun h -> check (cmp_key t b (at i) h <= 0)) hi
          done;
          let sep i = (Some (Bytes.sub b (at i) t.klen), Codec.get_u32 b (at i + t.klen)) in
          (leaf, if leaf then [] else (lo, leftmost b) :: List.init n sep))
    in
    check (leaf = (level = depth) && (leaf || List.length kids > 1));
    let rec each = function
      | [] -> ()
      | (lo, c) :: rest ->
        go c (level + 1) lo (match rest with (k, _) :: _ -> k | [] -> hi);
        each rest
    in
    each kids
  in
  go t.root 0 None None;
  (* Leaf chain must be globally sorted. *)
  let prev = ref None in
  iter_from t (Bytes.make t.klen '\000') ~f:(fun k _ ->
      (match !prev with Some p -> check (Bytes.compare p k <= 0) | None -> ());
      prev := Some (Bytes.copy k);
      true);
  !ok

let key_of_int ~klen v =
  if klen < 8 then invalid_arg "Btree.key_of_int: klen < 8";
  let b = Bytes.make klen '\000' in
  Bytes.set_int64_be b (klen - 8) (Int64.of_int v);
  b

let key_of_int2 ~klen a bv =
  if klen < 16 then invalid_arg "Btree.key_of_int2: klen < 16";
  let b = Bytes.make klen '\000' in
  Bytes.set_int64_be b (klen - 16) (Int64.of_int a);
  Bytes.set_int64_be b (klen - 8) (Int64.of_int bv);
  b

let key_of_string ~klen s =
  let b = Bytes.make klen '\000' in
  Bytes.blit_string s 0 b 0 (min klen (String.length s));
  b

let apply_logical client record =
  match record with
  | Wal.Index_insert { root; key; oid; _ } ->
    let t = open_tree client ~root ~klen:(Bytes.length key) in
    ignore (insert_nolog t ~key ~oid)
  | Wal.Index_delete { root; key; oid; _ } ->
    let t = open_tree client ~root ~klen:(Bytes.length key) in
    ignore (delete_nolog t ~key ~oid)
  | Wal.Begin _ | Wal.Update _ | Wal.Commit _ | Wal.Abort _ ->
    invalid_arg "Btree.apply_logical: not an index record"

let install_undo_handler client =
  Server.set_index_undo (Client.server client) (fun record -> apply_logical client record)
