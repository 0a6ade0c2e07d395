(* Bench-shape gate: regenerate every committed BENCH_*.json baseline
   from the one table [Harness.Bench_json.baselines] (the OO7
   small-database comparison, the prefetch, diff-ship, multi-client,
   callback-locking and snapshot-read extensions, and the log-index
   scaling run; each row's comment there says what it pins) and fail
   on any byte of drift. The gate also fails when a BENCH_*.json in
   the repo root has no row in the table, or a row has no committed
   file, so a baseline cannot drop out of it unnoticed.
   The simulation is deterministic, so times are
   compared exactly, not within a tolerance — any change to a committed
   file must be a deliberate, reviewed re-baseline
   (dune exec bench/main.exe -- quick no-bech --json).

   Runs as a plain executable test: exit 0 on match, exit 1 with the
   first differing line otherwise. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("test_bench_json: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la', y :: lb' -> if x = y then go (i + 1) la' lb' else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<eof>")
    | [], y :: _ -> Some (i, "<eof>", y)
  in
  go 1 la lb

let check ~name ~baseline regenerated =
  if String.equal baseline regenerated then
    Printf.printf "test_bench_json: %s matches the regenerated benchmark byte-for-byte\n" name
  else begin
    Printf.eprintf
      "test_bench_json: BENCH SHAPE DRIFT — regenerated OO7 output differs from the\n\
       committed %s. If the change is intentional, re-baseline with:\n\
      \  dune exec bench/main.exe -- quick no-bech --json\n"
      name;
    (match first_diff baseline regenerated with
     | Some (line, was, now) ->
       Printf.eprintf "first difference at line %d:\n  baseline:    %s\n  regenerated: %s\n" line
         was now
     | None ->
       Printf.eprintf "files differ in length only (baseline %d bytes, regenerated %d bytes)\n"
         (String.length baseline) (String.length regenerated));
    exit 1
  end

let () =
  let seed = 1234 in
  let progress m = Printf.printf "%s\n%!" m in
  let baselines = Harness.Bench_json.baselines in
  let rows = List.map (fun (b : Harness.Bench_json.baseline) -> b.file) baselines in
  (* Under [dune runtest] the cwd is [_build/default/test] (the
     baselines are globbed deps one level up); under [dune exec] from
     the repo root it is the root itself. *)
  let is_bench f = String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json" in
  let root =
    match List.find_opt (fun d -> Array.exists is_bench (Sys.readdir d)) [ ".."; "." ] with
    | Some d -> d
    | None -> fail "no committed BENCH_*.json found"
  in
  let committed = List.filter is_bench (Array.to_list (Sys.readdir root)) in
  List.iter
    (fun f -> if not (List.mem f rows) then fail "%s has no row in Bench_json.baselines" f)
    committed;
  List.iter
    (fun f -> if not (List.mem f committed) then fail "committed baseline %s not found" f)
    rows;
  let committed name = read_file (Filename.concat root name) in
  List.iter
    (fun (b : Harness.Bench_json.baseline) ->
      check ~name:b.file ~baseline:(committed b.file) (snd (b.run ~progress ~seed)))
    baselines;
  (* The committed baseline must itself carry the tentpole claim: the
     summary field is data, so a re-baseline that loses flatness fails
     here even though the bytes match. *)
  if
    not
      (List.mem "\"log_lookup_flat_2x\":true"
         (String.split_on_char ',' (committed "BENCH_index.json")))
  then fail "BENCH_index.json lost the flat-lookup property (log_lookup_flat_2x is not true)";
  Printf.printf "test_bench_json: BENCH_index.json log-index lookup is flat (spread < 2x)\n"
