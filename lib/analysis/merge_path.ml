(* Pass 3d: merge-path lock discipline (QS017) over the call graph.

   The log-structured index's merge ([Esm.Log_index]) is background
   maintenance: it rebuilds the sorted run while ordinary transactions
   keep reading and writing through the same server. The design keeps
   that safe by never *holding* page locks — pages are fixed, charged
   and unfixed, and the root swing is a single logged write — so a
   merge can be preempted at any charge boundary without stalling a
   foreground reader behind it. QS017 pins the discipline
   structurally: starting from every function named like a merge
   entry point (recognised by name, so fixture trees work the same as
   the real one), walk the functions reachable through resolved call
   edges and flag any event that acquires a page lock — directly or
   through its callees — and is still unreleased at a later event
   that charges the clock. Unlike QS012 (direct acquisitions only,
   everywhere) this rule follows *summary* acquisitions, because on a
   background path even a lock taken deep inside a helper turns every
   subsequent charge into a foreground stall. Intentional windows
   carry an expression-level [@qs_lint.allow "QS017"] with a
   rationale. *)

(* A merge entry point is recognised by name: [merge], [do_merge],
   [merge_step], ... — any function whose name contains "merge". *)
let is_merge_root name =
  let n = String.lowercase_ascii name in
  let m = "merge" in
  let rec scan i =
    i + String.length m <= String.length n && (String.sub n i (String.length m) = m || scan (i + 1))
  in
  scan 0

let qs017 (cg : Callgraph.t) (sums : Effects.summaries) : Lint.finding list =
  let reachable = Callgraph.reachable cg ~root:(fun f -> is_merge_root f.Callgraph.fn_name) in
  let findings = ref [] in
  Callgraph.iter_funcs
    (fun f ->
      if reachable f then begin
        (* Page-lock acquisitions (transitive, via the event's effect
           summary) armed since the last release or blocking point;
           each is reported at most once, at its own site. *)
        let armed = ref [] in
        List.iter
          (fun (ev : Callgraph.event) ->
            let s = Effects.event_summary cg sums ~caller:f ev in
            if s.Effects.charges then begin
              List.iter
                (fun (line, col, allows) ->
                  if
                    Lint.rule_applies ~path:f.Callgraph.fn_file "QS017"
                    && (not (List.mem "QS017" allows))
                    && not (List.mem "QS017" f.Callgraph.fn_allows)
                  then
                    findings :=
                      { Lint.file = f.Callgraph.fn_file
                      ; line
                      ; col
                      ; rule = "QS017"
                      ; msg =
                          Printf.sprintf
                            "%s is on the background merge path but holds a page lock here \
                             across a clock charge: a preempted merge would stall foreground \
                             readers behind it (unfix before charging, or annotate with \
                             [@qs_lint.allow \"QS017\"] and a rationale)"
                            (Callgraph.display f) }
                      :: !findings)
                (List.rev !armed);
              armed := []
            end;
            (* Arm *after* the charge check: an event that both acquires
               and charges (e.g. [Server.lock]) is atomic at this
               level, exactly as in QS012. *)
            if s.Effects.acq_page then
              armed := (ev.Callgraph.ev_line, ev.Callgraph.ev_col, ev.Callgraph.ev_allows) :: !armed;
            if s.Effects.releases || s.Effects.blocks then armed := [])
          f.Callgraph.events
      end)
    cg;
  List.rev !findings
