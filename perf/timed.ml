(* Host-time spans for the traced run, recorded from outside the store.

   [Make (S)] wraps the OO7 store interface: transaction calls
   (begin_txn, commit, reset_caches) become one span each; high-count
   calls (the index and set calls) are timed one by one but folded
   into the enclosing span as count, sum and max; read-class calls
   (the get calls, ptr_id, large_size, large_byte) are only counted,
   because timing each of ~0.5M reads per T1 pass would cost as much
   as the reads themselves. The wrapper charges nothing to the
   simulated clock, so a traced run's simulated numbers must equal the
   untraced run's bit for bit.

   Spans stay in memory until [write_chrome] exports them in Chrome
   trace_event form with a per-layer self-time table. *)

let now () = Monotonic_clock.now ()

type agg = { a_layer : string; mutable count : int; mutable sum : int64; mutable max : int64 }

type span = {
  id : int;
  parent : int;  (** enclosing span id, [-1] at top level *)
  name : string;
  layer : string;
  t0 : int64;
  mutable t1 : int64;
  reads0 : int;
  mutable reads1 : int;
  mutable child_ns : int64;  (** covered by direct child spans and folded calls *)
  mutable calls_ns : int64;  (** timed store calls anywhere below (final once closed) *)
  mutable aggs : (string * agg) list;  (** folded high-count calls, by name *)
}

(* Read-class calls counted so far (never reset: spans keep deltas). *)
let reads = ref 0
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let make_span ~layer name t0 =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; parent; name; layer; t0; t1 = t0; reads0 = !reads; reads1 = !reads
    ; child_ns = 0L; calls_ns = 0L; aggs = [] }
  in
  incr next_id;
  spans := s :: !spans;
  s

let open_span ~layer name = stack := make_span ~layer name (now ()) :: !stack

let close_span () =
  match !stack with
  | [] -> invalid_arg "Timed.close_span: no open span"
  | s :: rest ->
    s.t1 <- now ();
    s.reads1 <- !reads;
    stack := rest;
    (match rest with
     | p :: _ ->
       p.child_ns <- Int64.add p.child_ns (Int64.sub s.t1 s.t0);
       p.calls_ns <- Int64.add p.calls_ns s.calls_ns
     | [] -> ())

(* Close every open span (after a call raised mid-transaction). *)
let unwind () =
  while !stack <> [] do
    close_span ()
  done

let with_span ~layer name f =
  open_span ~layer name;
  Fun.protect ~finally:close_span f

(* A timed store call is covered time of the innermost span; its
   [calls_ns] reaches the outer spans when the inner ones close. *)
let charge_call dt =
  match !stack with
  | [] -> ()
  | p :: _ ->
    p.child_ns <- Int64.add p.child_ns dt;
    p.calls_ns <- Int64.add p.calls_ns dt

let timed f =
  let t0 = now () in
  match f () with
  | v -> (t0, now (), v)
  | exception e ->
    charge_call (Int64.sub (now ()) t0);
    raise e

(* One span per call. *)
let call ~layer name f =
  let t0, t1, v = timed f in
  if !stack <> [] then begin
    let s = make_span ~layer name t0 in
    s.t1 <- t1;
    charge_call (Int64.sub t1 t0)
  end;
  v

(* Folded into the innermost open span. *)
let fold ~layer name f =
  let t0, t1, v = timed f in
  (match !stack with
   | [] -> ()
   | p :: _ ->
     let dt = Int64.sub t1 t0 in
     let a =
       match List.assoc_opt name p.aggs with
       | Some a -> a
       | None ->
         let a = { a_layer = layer; count = 0; sum = 0L; max = 0L } in
         p.aggs <- (name, a) :: p.aggs;
         a
     in
     a.count <- a.count + 1;
     a.sum <- Int64.add a.sum dt;
     if dt > a.max then a.max <- dt;
     charge_call dt);
  v

module Make (S : Oo7.Store_intf.S) = struct
  include S

  let ptr_id st p = incr reads; S.ptr_id st p
  let get_int st p f = incr reads; S.get_int st p f
  let get_ptr st p f = incr reads; S.get_ptr st p f
  let get_chars st p f = incr reads; S.get_chars st p f
  let large_size st p = incr reads; S.large_size st p
  let large_byte st p i = incr reads; S.large_byte st p i
  let set_int st p f v = fold ~layer:"rec_buffer" "set_int" (fun () -> S.set_int st p f v)
  let set_ptr st p f v = fold ~layer:"rec_buffer" "set_ptr" (fun () -> S.set_ptr st p f v)
  let set_chars st p f v = fold ~layer:"rec_buffer" "set_chars" (fun () -> S.set_chars st p f v)
  let begin_txn st = call ~layer:"store" "begin_txn" (fun () -> S.begin_txn st)
  let commit st = call ~layer:"commit" "commit" (fun () -> S.commit st)
  let reset_caches st = call ~layer:"client" "reset_caches" (fun () -> S.reset_caches st)

  let index_insert st name ~key p =
    fold ~layer:"btree" "index_insert" (fun () -> S.index_insert st name ~key p)

  let index_delete st name ~key p =
    fold ~layer:"btree" "index_delete" (fun () -> S.index_delete st name ~key p)

  let index_lookup st name ~key = fold ~layer:"btree" "index_lookup" (fun () -> S.index_lookup st name ~key)

  let index_range st name ~lo ~hi fn =
    fold ~layer:"btree" "index_range" (fun () -> S.index_range st name ~lo ~hi fn)
end

(* ---- queries over the recorded spans ---- *)

let dur s = Int64.sub s.t1 s.t0
let all () = List.rev !spans

(* Spans recorded after [since] (a value of [mark ()]). *)
let mark () = !next_id
let since m = List.filter (fun s -> s.id >= m) (all ())

(* Sum, count and max of the folded calls named [name] in [ss]. *)
let folded ss name =
  List.fold_left
    (fun (sum, n, mx) s ->
      match List.assoc_opt name s.aggs with
      | Some a -> (Int64.add sum a.sum, n + a.count, max mx a.max)
      | None -> (sum, n, mx))
    (0L, 0, 0L) ss

type layer_row = { layer : string; calls : int; total_ns : int64; self_ns : int64 }

(* Self time per layer: a span's duration minus what its direct child
   spans and folded calls cover; a folded call is all self. *)
let self_table ss =
  let tbl = Hashtbl.create 16 in
  let add layer calls total self =
    let c, t, s = Option.value (Hashtbl.find_opt tbl layer) ~default:(0, 0L, 0L) in
    Hashtbl.replace tbl layer (c + calls, Int64.add t total, Int64.add s self)
  in
  List.iter
    (fun (s : span) ->
      add s.layer 1 (dur s) (Int64.sub (dur s) s.child_ns);
      List.iter (fun (_, a) -> add a.a_layer a.count a.sum a.sum) s.aggs)
    ss;
  Hashtbl.fold (fun layer (calls, total_ns, self_ns) acc -> { layer; calls; total_ns; self_ns } :: acc) tbl []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)

let us ns = Int64.to_float ns /. 1e3

let write_chrome path ss =
  let b = Buffer.create (1 lsl 16) in
  let origin = match ss with s :: _ -> s.t0 | [] -> 0L in
  let rel t = us (Int64.sub t origin) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"reads\":%d"
        s.name s.layer (rel s.t0) (us (dur s)) s.id s.parent (s.reads1 - s.reads0);
      List.iter
        (fun (name, a) ->
          Printf.bprintf b ",%S:{\"count\":%d,\"sum_us\":%.3f,\"max_us\":%.3f}" name a.count (us a.sum)
            (us a.max))
        (List.rev s.aggs);
      Buffer.add_string b "}}")
    ss;
  Buffer.add_string b "],\n\"selfTime\":[";
  let rows = self_table ss in
  let total = List.fold_left (fun acc r -> Int64.add acc r.self_ns) 0L rows in
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n{\"layer\":%S,\"calls\":%d,\"total_ms\":%.3f,\"self_ms\":%.3f,\"share\":%.4f}" r.layer
        r.calls (us r.total_ns /. 1e3) (us r.self_ns /. 1e3)
        (if total = 0L then 0.0 else Int64.to_float r.self_ns /. Int64.to_float total))
    rows;
  Buffer.add_string b "]}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
  rows
