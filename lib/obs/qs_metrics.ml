module Category = Simclock.Category
module Clock = Simclock.Clock

type span_row = {
  sr_name : string;
  sr_cat : string;
  mutable sr_count : int;
  mutable sr_sim_us : float;
  sr_us : float array;
  sr_events : int array;
}

type t = {
  cat_us : float array;
  cat_events : int array;
  spans : span_row list;
}

(* Exactly Clock.charge / Clock.charge_n's accumulation, so replaying
   the stream from zero reproduces the clock's floats bit for bit. *)
let accumulate us events cat n per_us =
  let i = Category.index cat in
  if n = 1 then us.(i) <- us.(i) +. per_us else us.(i) <- us.(i) +. (float_of_int n *. per_us);
  events.(i) <- events.(i) + n

let of_trace trace =
  let cat_us = Array.make Category.count 0.0 in
  let cat_events = Array.make Category.count 0 in
  let rows = Hashtbl.create 32 in
  let order = ref [] in
  let row name cat =
    match Hashtbl.find_opt rows name with
    | Some r -> r
    | None ->
      let r =
        { sr_name = name
        ; sr_cat = cat
        ; sr_count = 0
        ; sr_sim_us = 0.0
        ; sr_us = Array.make Category.count 0.0
        ; sr_events = Array.make Category.count 0 }
      in
      Hashtbl.replace rows name r;
      order := r :: !order;
      r
  in
  (* Stack of open spans, innermost first: (id, row, begin ts). *)
  let stack = ref [] in
  Qs_trace.iter
    (fun ev ->
      match ev with
      | Qs_trace.Ev_begin { id; name; cat; ts; _ } ->
        let r = row name cat in
        r.sr_count <- r.sr_count + 1;
        stack := (id, r, ts) :: !stack
      | Qs_trace.Ev_end { id; ts } -> (
        match !stack with
        | (id', r, t0) :: tl when id' = id ->
          r.sr_sim_us <- r.sr_sim_us +. (ts -. t0);
          stack := tl
        | _ ->
          (* Tolerate unbalanced traces (span left open across a raise
             at a manual begin/end site): drop through the stack. *)
          stack := List.filter (fun (id', _, _) -> id' <> id) !stack)
      | Qs_trace.Ev_charge { cat; n; us; _ } ->
        accumulate cat_us cat_events cat n us;
        (* Inclusive per-span attribution; a name open twice on the
           stack (self-nesting) counts once. *)
        let seen = ref [] in
        List.iter
          (fun (_, r, _) ->
            if not (List.memq r !seen) then begin
              seen := r :: !seen;
              accumulate r.sr_us r.sr_events cat n us
            end)
          !stack
      | Qs_trace.Ev_instant _ | Qs_trace.Ev_counter _ -> ())
    trace;
  { cat_us; cat_events; spans = List.rev !order }

let category_us t cat = t.cat_us.(Category.index cat)
let category_events t cat = t.cat_events.(Category.index cat)
let total_us t = Array.fold_left ( +. ) 0.0 t.cat_us
let find_span t name = List.find_opt (fun r -> r.sr_name = name) t.spans

let crosscheck t clock =
  let errs = ref [] in
  List.iter
    (fun cat ->
      let i = Category.index cat in
      let mine = t.cat_us.(i) and clk = Clock.category_us clock cat in
      if Int64.bits_of_float mine <> Int64.bits_of_float clk then
        errs :=
          Printf.sprintf "%s: trace %.17g us <> clock %.17g us" (Category.name cat) mine clk
          :: !errs;
      let em = t.cat_events.(i) and ec = Clock.category_events clock cat in
      if em <> ec then
        errs := Printf.sprintf "%s: trace %d events <> clock %d" (Category.name cat) em ec :: !errs)
    Category.all;
  match List.rev !errs with [] -> Ok () | l -> Error l

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "category totals (from trace)\n";
  List.iter
    (fun cat ->
      let i = Category.index cat in
      if t.cat_events.(i) > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %-20s %12.3f ms %10d events\n" (Category.name cat)
             (t.cat_us.(i) /. 1000.0)
             t.cat_events.(i)))
    Category.all;
  Buffer.add_string b (Printf.sprintf "  %-20s %12.3f ms\n" "total" (total_us t /. 1000.0));
  if t.spans <> [] then begin
    Buffer.add_string b "spans (inclusive)\n";
    Buffer.add_string b
      (Printf.sprintf "  %-24s %8s %12s %12s\n" "name" "count" "sim ms" "charged ms");
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "  %-24s %8d %12.3f %12.3f\n" r.sr_name r.sr_count
             (r.sr_sim_us /. 1000.0)
             (Array.fold_left ( +. ) 0.0 r.sr_us /. 1000.0)))
      t.spans
  end;
  Buffer.contents b
