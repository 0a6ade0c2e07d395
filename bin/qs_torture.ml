(* Crash-point torture driver: run N seeded fault schedules through
   Harness.Torture, print the per-point coverage table, and exit
   non-zero if any schedule failed a consistency check. Each seed is
   fully deterministic; a failure line includes the one-flag repro. *)

module Torture = Harness.Torture

let run seeds first clients verbose =
  let log = if verbose then print_endline else fun _ -> () in
  let s = Torture.run_range ~log ?clients ~first ~count:seeds () in
  Printf.printf "torture: %d schedules (seeds %d..%d), %d transient faults injected\n" s.Torture.total
    first
    (first + seeds - 1)
    s.Torture.transients_total;
  let unfired = ref [] in
  let table ?(where = "") header rows =
    Printf.printf "%-22s %9s %6s\n" "crash point" header "fired";
    List.iter
      (fun (point, armed, fired) ->
        let name = Qs_fault.Point.name point in
        Printf.printf "%-22s %9d %6d\n" name armed fired;
        if armed > 0 && fired = 0 then unfired := (name ^ where) :: !unfired)
      rows
  in
  table "schedules" s.Torture.coverage;
  Printf.printf "first restart cut at a drawn point:\n";
  table ~where:" (in restart)" "restarts" s.Torture.restart_coverage;
  List.iter
    (fun o ->
      Printf.printf "FAIL seed %d [%s, %d clients]: %s\n  repro: %s\n" o.Torture.seed
        (Qs_fault.Point.name o.Torture.point) o.Torture.clients
        (match o.Torture.failure with Some m -> m | None -> "")
        (Torture.repro ~seed:o.Torture.seed ~clients:o.Torture.clients))
    s.Torture.failed;
  (match !unfired with
   | [] -> ()
   | ps ->
     Printf.printf "note: armed crash never fired for: %s\n" (String.concat ", " (List.rev ps)));
  match s.Torture.failed with
  | [] ->
    Printf.printf "torture: all %d schedules consistent\n" s.Torture.total;
    0
  | fs ->
    Printf.printf "torture: %d of %d schedules FAILED\n" (List.length fs) s.Torture.total;
    1

open Cmdliner

let seeds =
  Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeded schedules to run.")

let first_seed =
  Arg.(value & opt int 0 & info [ "first-seed" ] ~docv:"SEED" ~doc:"First seed of the range.")

let clients =
  let positive s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg "expected a positive integer")
  in
  Arg.(
    value
    & opt (some (conv (positive, Format.pp_print_int))) None
    & info [ "clients" ] ~docv:"N"
        ~doc:
          "Concurrent clients of scheduled (non-index) schedules (default: 2-4 rotating with the \
           seed; 1 = one client under the scheduler).")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print one line per schedule.")

let cmd =
  let doc = "crash-point torture: seeded fault schedules with recovery consistency checks" in
  Cmd.v (Cmd.info "qs_torture" ~doc) Term.(const run $ seeds $ first_seed $ clients $ verbose)

let () = exit (Cmd.eval' cmd)
