(* The whole-program analyzer driver (rules QS011–QS014, QS016, QS017
   and the effects baseline): ties the three passes together.

     Pass 1  Callgraph.build    parse + extract + resolve
     Pass 2  Effects.compute    per-function summaries, to fixpoint
     Pass 3  Lockorder / Coverage    the rules

   The input is a list of (path, contents) pairs so tests can feed
   synthetic programs; [analyze_paths] reads a source tree. All output
   is deterministic: inputs are sorted, summaries and edges are
   emitted in sorted order, and nothing iterates a hashtable without
   sorting. *)

module Json = Qs_util.Json

type result = {
  graph : Callgraph.t;
  summaries : Effects.summaries;
  edges : Lockorder.edge list;
  findings : Lint.finding list;  (** QS011–QS014, QS016 and QS017, sorted like Lint's *)
}

let analyze files =
  let graph = Callgraph.build ~allows_of_attrs:Lint.allows_of_attrs files in
  let summaries = Effects.compute graph in
  let edges = Lockorder.edges graph summaries in
  let findings =
    Lockorder.qs011 graph summaries
    @ Lockorder.qs012 graph summaries
    @ Coverage.qs013 graph summaries
    @ Coverage.qs014 graph summaries
    @ Snapshot_path.qs016 graph summaries
    @ Merge_path.qs017 graph summaries
  in
  let findings =
    List.sort
      (fun a b ->
        compare
          (a.Lint.file, a.Lint.line, a.Lint.col, a.Lint.rule)
          (b.Lint.file, b.Lint.line, b.Lint.col, b.Lint.rule))
      findings
  in
  { graph; summaries; edges; findings }

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let analyze_paths paths = analyze (List.map (fun p -> (p, read_file p)) (List.sort compare paths))

(* ------------------------------------------------------------------ *)
(* The committed baseline: ANALYSIS_effects.json.                      *)

let effects_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"functions\": [\n";
  let rows = ref [] in
  Callgraph.iter_funcs
    (fun f ->
      let s = Effects.get r.summaries f.Callgraph.fn_key in
      (* Only functions with effects appear: the baseline is a review
         surface for effect *drift*, and all-empty rows would bury it. *)
      if not (Effects.is_empty s) then
        rows :=
          ( (Callgraph.display f, f.Callgraph.fn_file, f.Callgraph.fn_line)
          , Effects.summary_json ~name:(Callgraph.display f) ~file:f.Callgraph.fn_file s )
          :: !rows)
    r.graph;
  let rows = List.sort compare !rows in
  Buffer.add_string b (String.concat ",\n" (List.map (fun (_, j) -> "    " ^ j) rows));
  Buffer.add_string b "\n  ],\n  \"lock_order\": [\n";
  let edge_rows =
    List.map
      (fun e ->
        Printf.sprintf "    {\"from\":%s,\"to\":%s,\"via\":%s,\"file\":%s}"
          (Json.string e.Lockorder.e_from) (Json.string e.Lockorder.e_to)
          (Json.string e.Lockorder.via) (Json.string e.Lockorder.e_file))
      r.edges
  in
  Buffer.add_string b (String.concat ",\n" edge_rows);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Human report (qs_lint --report).                                    *)

let report r =
  let b = Buffer.create 4096 in
  let count = ref 0 and with_effects = ref 0 in
  Callgraph.iter_funcs
    (fun f ->
      incr count;
      if not (Effects.is_empty (Effects.get r.summaries f.Callgraph.fn_key)) then
        incr with_effects)
    r.graph;
  Buffer.add_string b
    (Printf.sprintf "qs_deps: %d functions analyzed, %d with effects\n" !count !with_effects);
  Buffer.add_string b "\nlock-order graph (held -> acquired):\n";
  if r.edges = [] then Buffer.add_string b "  (no ordered acquisitions)\n"
  else begin
    (* One line per distinct (from, to), with the asserting sites. *)
    let by_pair = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let k = (e.Lockorder.e_from, e.Lockorder.e_to) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_pair k) in
        Hashtbl.replace by_pair k
          (Printf.sprintf "%s (%s:%d)" e.Lockorder.via e.Lockorder.e_file e.Lockorder.e_line
           :: prev))
      r.edges;
    let pairs = List.sort_uniq compare (List.map (fun e -> (e.Lockorder.e_from, e.Lockorder.e_to)) r.edges) in
    List.iter
      (fun ((from_, to_) as k) ->
        Buffer.add_string b
          (Printf.sprintf "  %s -> %s   via %s\n" from_ to_
             (String.concat ", " (List.sort_uniq compare (Hashtbl.find by_pair k)))))
      pairs;
    match Lockorder.cycles r.edges with
    | [] -> Buffer.add_string b "  acyclic\n"
    | cyc -> Buffer.add_string b (Printf.sprintf "  CYCLE through {%s}\n" (String.concat ", " cyc))
  end;
  let interesting =
    [ ("holds a lock", fun s -> Effects.acquires_any s)
    ; ("charges the clock", fun s -> s.Effects.charges)
    ; ("durable write (wal_force/disk_write)", fun s -> s.Effects.wal_force || s.Effects.disk_write)
    ; ("crash surface", fun s -> s.Effects.crash_surface) ]
  in
  List.iter
    (fun (label, pred) ->
      let names = ref [] in
      Callgraph.iter_funcs
        (fun f ->
          if pred (Effects.get r.summaries f.Callgraph.fn_key) then
            names := Callgraph.display f :: !names)
        r.graph;
      Buffer.add_string b
        (Printf.sprintf "\n%s (%d):\n  %s\n" label (List.length !names)
           (String.concat ", " (List.sort_uniq compare !names))))
    interesting;
  Buffer.contents b
