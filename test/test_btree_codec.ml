(* Page-image oracle for the in-place B-tree node codec.

   [Ref] below is the array codec Esm.Btree used before nodes were
   searched and edited in place: every visit decodes a whole node into
   arrays and every write re-encodes entries [0, nkeys). Two identically
   seeded server/client pairs run the same operations in lockstep, one
   through Esm.Btree and one through [Ref]. After every operation the
   two must agree byte for byte: every page image (all of it, including
   bytes past the last entry), client residency, the trace of clock
   charges, the server's counters and the WAL. *)

module Btree = Esm.Btree
module Client = Esm.Client
module Server = Esm.Server
module Disk = Esm.Disk
module Page = Esm.Page
module Oid = Esm.Oid
module Wal = Esm.Wal
module Clock = Simclock.Clock
module Category = Simclock.Category
module Codec = Qs_util.Codec
module Rng = Qs_util.Rng

module Ref = struct
  let body = 48

  type t = { client : Client.t; root : int; klen : int; cap : int }

  type node = {
    page_id : int;
    is_leaf : bool;
    mutable right_sib : int;
    mutable leftmost : int;
    mutable keys : bytes array;
    mutable vals : Oid.t array;
    mutable children : int array;
  }

  let charge_node t =
    let cm = Client.cost_model t.client in
    Qs_trace.charge (Client.clock t.client) Category.Index_op cm.Simclock.Cost_model.index_cpu_us

  let with_page t page_id f =
    let frame = Client.fix_page t.client ~kind:Server.Index page_id in
    Fun.protect
      ~finally:(fun () -> Client.unfix_page t.client ~frame)
      (fun () -> f frame (Client.page_bytes t.client ~frame))

  let read_node t page_id =
    charge_node t;
    with_page t page_id (fun _frame b ->
        let is_leaf = Codec.get_u8 b 32 = 1 in
        let nkeys = Codec.get_u16 b 34 in
        let right_sib = Codec.get_u32 b 36 in
        let leftmost = Codec.get_u32 b 40 in
        let esize = t.klen + if is_leaf then Oid.disk_size else 4 in
        let keys = Array.init nkeys (fun i -> Bytes.sub b (body + (i * esize)) t.klen) in
        let vals =
          if is_leaf then Array.init nkeys (fun i -> Oid.read b (body + (i * esize) + t.klen))
          else [||]
        in
        let children =
          if is_leaf then [||]
          else Array.init nkeys (fun i -> Codec.get_u32 b (body + (i * esize) + t.klen))
        in
        { page_id; is_leaf; right_sib; leftmost; keys; vals; children })

  let write_node t n =
    with_page t n.page_id (fun frame b ->
        Codec.set_u8 b 32 (if n.is_leaf then 1 else 0);
        Codec.set_u16 b 34 (Array.length n.keys);
        Codec.set_u32 b 36 n.right_sib;
        Codec.set_u32 b 40 n.leftmost;
        let esize = t.klen + if n.is_leaf then Oid.disk_size else 4 in
        Array.iteri
          (fun i k ->
            Bytes.blit k 0 b (body + (i * esize)) t.klen;
            if n.is_leaf then Oid.write b (body + (i * esize) + t.klen) n.vals.(i)
            else Codec.set_u32 b (body + (i * esize) + t.klen) n.children.(i))
          n.keys;
        Client.mark_dirty t.client ~frame)

  let write_root_meta t =
    with_page t t.root (fun frame b ->
        Codec.set_u16 b 44 t.klen;
        Codec.set_u16 b 46 t.cap;
        Client.mark_dirty t.client ~frame)

  let create ?cap client ~klen =
    let full = (Page.page_size - body) / (klen + Oid.disk_size) in
    let cap = match cap with None -> full | Some c -> min (max c 3) full in
    let page_id, frame = Client.new_page client ~kind:Page.Btree_node in
    Client.unfix_page client ~frame;
    let t = { client; root = page_id; klen; cap } in
    write_node t
      { page_id; is_leaf = true; right_sib = 0; leftmost = 0; keys = [||]; vals = [||]; children = [||] };
    write_root_meta t;
    t

  let open_tree client ~root ~klen =
    let t0 = { client; root; klen; cap = 3 } in
    with_page t0 root (fun _frame b -> { client; root; klen; cap = Codec.get_u16 b 46 })

  let upper_bound keys key =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Bytes.compare keys.(mid) key <= 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length keys)

  let lower_bound keys key =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Bytes.compare keys.(mid) key < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length keys)

  let descend_child n key =
    let p = lower_bound n.keys key in
    if p = 0 then n.leftmost else n.children.(p - 1)

  let descend_child_ins n key =
    let p = upper_bound n.keys key in
    if p = 0 then n.leftmost else n.children.(p - 1)

  let array_insert a i x =
    Array.init (Array.length a + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

  let array_remove a i = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))
  let sub_array a lo hi = Array.sub a lo (hi - lo)

  let alloc_node t ~is_leaf =
    let page_id, frame = Client.new_page t.client ~kind:Page.Btree_node in
    Client.unfix_page t.client ~frame;
    { page_id; is_leaf; right_sib = 0; leftmost = 0; keys = [||]; vals = [||]; children = [||] }

  let split_leaf t n =
    let len = Array.length n.keys in
    let h = len / 2 in
    let right = alloc_node t ~is_leaf:true in
    right.keys <- sub_array n.keys h len;
    right.vals <- sub_array n.vals h len;
    right.right_sib <- n.right_sib;
    n.keys <- sub_array n.keys 0 h;
    n.vals <- sub_array n.vals 0 h;
    n.right_sib <- right.page_id;
    write_node t n;
    write_node t right;
    Some (Bytes.copy right.keys.(0), right.page_id)

  let split_internal t n =
    let len = Array.length n.keys in
    let h = len / 2 in
    let right = alloc_node t ~is_leaf:false in
    let sep = Bytes.copy n.keys.(h) in
    right.leftmost <- n.children.(h);
    right.keys <- sub_array n.keys (h + 1) len;
    right.children <- sub_array n.children (h + 1) len;
    n.keys <- sub_array n.keys 0 h;
    n.children <- sub_array n.children 0 h;
    write_node t n;
    write_node t right;
    Some (sep, right.page_id)

  let leaf_contains n key oid =
    let rec go i =
      if i >= Array.length n.keys || Bytes.compare n.keys.(i) key > 0 then false
      else if Bytes.equal n.keys.(i) key && Oid.equal n.vals.(i) oid then true
      else go (i + 1)
    in
    go (lower_bound n.keys key)

  let rec ins t page_id key oid =
    let n = read_node t page_id in
    if n.is_leaf then begin
      if leaf_contains n key oid then None
      else begin
        let i = upper_bound n.keys key in
        n.keys <- array_insert n.keys i (Bytes.copy key);
        n.vals <- array_insert n.vals i oid;
        if Array.length n.keys <= t.cap then begin
          write_node t n;
          None
        end
        else split_leaf t n
      end
    end
    else begin
      match ins t (descend_child_ins n key) key oid with
      | None -> None
      | Some (sep, right_id) ->
        let i = upper_bound n.keys sep in
        n.keys <- array_insert n.keys i sep;
        n.children <- array_insert n.children i right_id;
        if Array.length n.keys <= t.cap then begin
          write_node t n;
          None
        end
        else split_internal t n
    end

  let grow_root t (sep, right_id) =
    let old_root = read_node t t.root in
    let moved = alloc_node t ~is_leaf:old_root.is_leaf in
    moved.right_sib <- old_root.right_sib;
    moved.leftmost <- old_root.leftmost;
    moved.keys <- old_root.keys;
    moved.vals <- old_root.vals;
    moved.children <- old_root.children;
    write_node t moved;
    write_node t
      { page_id = t.root
      ; is_leaf = false
      ; right_sib = 0
      ; leftmost = moved.page_id
      ; keys = [| sep |]
      ; vals = [||]
      ; children = [| right_id |] };
    write_root_meta t

  let rec contains_pair t page_id key oid =
    let n = read_node t page_id in
    if not n.is_leaf then contains_pair t (descend_child n key) key oid
    else begin
      let rec scan n =
        if leaf_contains n key oid then true
        else if
          n.right_sib <> 0
          && (Array.length n.keys = 0 || Bytes.compare n.keys.(Array.length n.keys - 1) key <= 0)
        then scan (read_node t n.right_sib)
        else false
      in
      scan n
    end

  let insert_nolog t ~key ~oid =
    if contains_pair t t.root key oid then false
    else begin
      (match ins t t.root key oid with None -> () | Some promo -> grow_root t promo);
      true
    end

  let insert t ~key ~oid =
    if insert_nolog t ~key ~oid then
      ignore
        (Server.log_index (Client.server t.client) ~txn:(Client.txn_id t.client)
           (Wal.Index_insert { txn = Client.txn_id t.client; root = t.root; key = Bytes.copy key; oid }))

  let rec find_leaf t page_id key =
    let n = read_node t page_id in
    if n.is_leaf then n else find_leaf t (descend_child n key) key

  let delete_nolog t ~key ~oid =
    let rec scan n =
      let rec in_leaf i =
        if i >= Array.length n.keys then `Chain
        else
          let c = Bytes.compare n.keys.(i) key in
          if c > 0 then `Stop
          else if c = 0 && Oid.equal n.vals.(i) oid then `Found i
          else in_leaf (i + 1)
      in
      match in_leaf (lower_bound n.keys key) with
      | `Found i ->
        n.keys <- array_remove n.keys i;
        n.vals <- array_remove n.vals i;
        write_node t n;
        true
      | `Stop -> false
      | `Chain -> if n.right_sib = 0 then false else scan (read_node t n.right_sib)
    in
    scan (find_leaf t t.root key)

  let delete t ~key ~oid =
    let present = delete_nolog t ~key ~oid in
    if present then
      ignore
        (Server.log_index (Client.server t.client) ~txn:(Client.txn_id t.client)
           (Wal.Index_delete { txn = Client.txn_id t.client; root = t.root; key = Bytes.copy key; oid }));
    present

  let iter_from t key ~f =
    let rec walk n i =
      if i >= Array.length n.keys then begin
        if n.right_sib <> 0 then walk (read_node t n.right_sib) 0
      end
      else if f n.keys.(i) n.vals.(i) then walk n (i + 1)
    in
    let n = find_leaf t t.root key in
    walk n (lower_bound n.keys key)

  let lookup_all t ~key =
    let acc = ref [] in
    iter_from t key ~f:(fun k oid ->
        if Bytes.equal k key then begin
          acc := oid :: !acc;
          true
        end
        else false);
    List.rev !acc

  let range t ~lo ~hi f =
    iter_from t lo ~f:(fun k oid ->
        if Bytes.compare k hi > 0 then false
        else begin
          if Bytes.compare k lo >= 0 then f k oid;
          true
        end)

  let apply_logical client = function
    | Wal.Index_insert { root; key; oid; _ } ->
      ignore (insert_nolog (open_tree client ~root ~klen:(Bytes.length key)) ~key ~oid)
    | Wal.Index_delete { root; key; oid; _ } ->
      ignore (delete_nolog (open_tree client ~root ~klen:(Bytes.length key)) ~key ~oid)
    | _ -> invalid_arg "Ref.apply_logical"
end

(* One side of the lockstep: a server, its client, and a trace sink
   recording every clock charge in order. *)
type side = { server : Server.t; client : Client.t; sink : Qs_trace.t }

let make_side ~frames ~undo =
  let clock = Clock.create () in
  let sink = Qs_trace.create ~clock () in
  Qs_trace.arm sink;
  let server = Server.create ~frames:64 ~clock ~cm:Simclock.Cost_model.default () in
  let client = Client.create ~frames server in
  Server.set_index_undo server (undo client);
  { server; client; sink }

let fail_at ~ctx fmt = Printf.ksprintf (fun m -> Alcotest.fail (ctx ^ ": " ^ m)) fmt

let wal_records s =
  let acc = ref [] in
  Wal.iter_all (fun lsn r -> acc := (lsn, r) :: !acc) (Server.wal s.server);
  !acc

(* Every page image (client frame and, with [server_images], server
   copy; all bytes), the charge totals, the server counters and the WAL
   size must be identical. *)
let check_lockstep ?(server_images = true) ~ctx a b =
  let da = Server.disk a.server and db = Server.disk b.server in
  if Disk.page_count da <> Disk.page_count db then fail_at ~ctx "page counts differ";
  let pa = Bytes.create Page.page_size and pb = Bytes.create Page.page_size in
  for p = 1 to Disk.page_count da do
    if Disk.is_allocated da p <> Disk.is_allocated db p then fail_at ~ctx "allocation of page %d differs" p;
    if server_images && Disk.is_allocated da p then begin
      Server.peek_page a.server p pa;
      Server.peek_page b.server p pb;
      if not (Bytes.equal pa pb) then fail_at ~ctx "server image of page %d differs" p
    end;
    match (Client.frame_of_page a.client p, Client.frame_of_page b.client p) with
    | None, None -> ()
    | Some fa, Some fb ->
      if not (Bytes.equal (Client.page_bytes a.client ~frame:fa) (Client.page_bytes b.client ~frame:fb))
      then fail_at ~ctx "client frame of page %d differs" p
    | _ -> fail_at ~ctx "residency of page %d differs" p
  done;
  let ca = Server.clock a.server and cb = Server.clock b.server in
  if Clock.category_events ca Category.Index_op <> Clock.category_events cb Category.Index_op then
    fail_at ~ctx "Index_op counts differ";
  List.iter
    (fun cat ->
      if Clock.category_us ca cat <> Clock.category_us cb cat then
        fail_at ~ctx "%s totals differ" (Category.name cat))
    Category.all;
  if Qs_trace.length a.sink <> Qs_trace.length b.sink then fail_at ~ctx "trace lengths differ";
  if Server.counters a.server <> Server.counters b.server then fail_at ~ctx "server counters differ";
  let wa = Server.wal a.server and wb = Server.wal b.server in
  if Wal.total_bytes wa <> Wal.total_bytes wb || Wal.record_count wa <> Wal.record_count wb then
    fail_at ~ctx "WAL sizes differ"

(* The full record lists and charge traces, compared less often. *)
let check_logs ~ctx a b =
  if wal_records a <> wal_records b then fail_at ~ctx "WAL records differ";
  if Qs_trace.events a.sink <> Qs_trace.events b.sink then fail_at ~ctx "charge traces differ"

type shape = {
  klen : int;
  cap : int option;  (* [None]: the full page capacity *)
  frames : int;  (* client pool: small pools evict parents mid-descent *)
  keys : int;  (* key space *)
  vals : int;  (* oids per key: duplicates *)
  ops : int;
  abort_pct : int;  (* share of transaction ends that abort *)
}

let key_of shape k =
  if shape.klen >= 16 then Btree.key_of_int2 ~klen:shape.klen (k mod 7) k
  else Btree.key_of_int ~klen:shape.klen k

let oid_of k v = Oid.make ~page:k ~slot:v ~unique:((k * 8) + v) ()

let run shape seed =
  let a = make_side ~frames:shape.frames ~undo:(fun c r -> Btree.apply_logical c r) in
  let b = make_side ~frames:shape.frames ~undo:Ref.apply_logical in
  Fun.protect
    ~finally:(fun () ->
      Qs_trace.disarm a.sink;
      Qs_trace.disarm b.sink)
    (fun () ->
      let rng = Rng.create (0x1d0 + seed) in
      Client.begin_txn a.client;
      Client.begin_txn b.client;
      let ta = Btree.create ?cap:shape.cap a.client ~klen:shape.klen in
      let tb = Ref.create ?cap:shape.cap b.client ~klen:shape.klen in
      (* The tree outlives every aborted transaction below. *)
      Client.commit a.client;
      Client.commit b.client;
      Client.begin_txn a.client;
      Client.begin_txn b.client;
      let shipped = ref (-1) in
      for step = 1 to shape.ops do
        let ctx = Printf.sprintf "seed %d step %d" seed step in
        let k = Rng.int rng shape.keys and v = Rng.int rng shape.vals in
        let key = key_of shape k and oid = oid_of k v in
        (match Rng.int rng 100 with
        | r when r < 55 ->
          Btree.insert ta ~key ~oid;
          Ref.insert tb ~key ~oid
        | r when r < 80 ->
          if Btree.delete ta ~key ~oid <> Ref.delete tb ~key ~oid then fail_at ~ctx "delete verdicts differ"
        | r when r < 90 ->
          if Btree.lookup_all ta ~key <> Ref.lookup_all tb ~key then fail_at ~ctx "lookups differ"
        | _ ->
          let hi = key_of shape (k + Rng.int rng 20) in
          let scan f = let acc = ref [] in f (fun k o -> acc := (Bytes.to_string k, o) :: !acc); !acc in
          if scan (Btree.range ta ~lo:key ~hi) <> scan (Ref.range tb ~lo:key ~hi) then
            fail_at ~ctx "ranges differ");
        (* Server copies change only when a client ships a page. *)
        let writes = (Server.counters a.server).Server.client_writes in
        check_lockstep ~server_images:(writes <> !shipped) ~ctx a b;
        shipped := writes;
        if Rng.int rng 25 = 0 then begin
          if Rng.int rng 100 < shape.abort_pct then begin
            Client.abort a.client;
            Client.abort b.client
          end
          else begin
            Client.commit a.client;
            Client.commit b.client
          end;
          check_lockstep ~ctx:(ctx ^ " (txn end)") a b;
          check_logs ~ctx a b;
          Client.begin_txn a.client;
          Client.begin_txn b.client
        end
      done;
      Client.commit a.client;
      Client.commit b.client;
      let ctx = Printf.sprintf "seed %d end" seed in
      check_lockstep ~ctx a b;
      check_logs ~ctx a b;
      Client.begin_txn a.client;
      if not (Btree.invariants_hold ta) then fail_at ~ctx "invariants broken";
      Client.commit a.client)

let fuzz = { klen = 8; cap = Some 6; frames = 64; keys = 200; vals = 3; ops = 1500; abort_pct = 30 }

let cases =
  [ ("index fuzz seeds", fuzz, [ 1; 2; 3; 4; 5; 6; 7; 8; 11; 12; 13; 14; 15; 16 ])
  ; ("duplicate-heavy", { fuzz with keys = 6; vals = 60; cap = Some 4 }, [ 1; 2; 3 ])
    (* Aborts need a pool that holds every page a transaction dirties:
       a B-tree transaction larger than the pool must steal dirty nodes,
       and abort cannot undo stolen node bytes (DESIGN.md, the
       log-structured index section). A 6-frame pool, without aborts,
       evicts clean parents between a descent and the write-back. *)
  ; ("small cap, deep splits", { fuzz with cap = Some 3; keys = 2000; frames = 256 }, [ 1; 2; 3 ])
  ; ("small pool", { fuzz with cap = Some 3; keys = 2000; frames = 6; abort_pct = 0 }, [ 1; 2; 3 ])
  ; ("full cap, klen 8", { fuzz with cap = None; keys = 100_000; ops = 2500; abort_pct = 20 }, [ 1; 2 ])
  ; ( "full cap, klen 16"
    , { fuzz with klen = 16; cap = None; keys = 100_000; ops = 2500; abort_pct = 20 }
    , [ 1; 2 ] )
  ; ("aborts", { fuzz with abort_pct = 90; vals = 6 }, [ 1; 2; 3 ]) ]

let () =
  Alcotest.run "btree_codec"
    (List.map
       (fun (name, shape, seeds) ->
         ( name
         , List.map
             (fun seed -> Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () -> run shape seed))
             seeds ))
       cases)
