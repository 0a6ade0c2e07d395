(* lib/sched: the deterministic discrete-event scheduler.

   The contract under test is determinism-first: a run is a pure
   function of (program, seed) — same seed, identical interleaving —
   with preemption only at clock-charge boundaries, explicit blocking
   via [block_on] (wake, cancel, timeout), preemption masking via
   [atomically], and cheap no-op degradation for off-task callers. *)

module Clock = Simclock.Clock
module Category = Simclock.Category

let charge clock us = Clock.charge clock Category.App_work us

(* Run [f] with a fresh scheduler and clock; [f] receives the
   scheduler and clock and spawns tasks; returns the outcomes. *)
let with_sched ?(seed = 7) f =
  let clock = Clock.create () in
  let sched = Sched.create ~seed ~clocks:[ clock ] () in
  f sched clock;
  Sched.run sched

let no_deaths outcomes =
  List.iter
    (fun (name, e) ->
      match e with
      | None -> ()
      | Some e -> Alcotest.failf "task %s died: %s" name (Printexc.to_string e))
    outcomes

(* --- interleaving ------------------------------------------------- *)

let trace_of ~seed =
  let order = ref [] in
  let outcomes =
    with_sched ~seed (fun sched clock ->
        List.iter
          (fun name ->
            Sched.spawn sched ~name (fun () ->
                (* 8 x 10us out-charges the [0,50) seeded start offsets,
                   so neither task can legally run to completion first *)
                for _ = 1 to 8 do
                  order := name :: !order;
                  charge clock 10.0
                done))
          [ "a"; "b" ])
  in
  no_deaths outcomes;
  List.rev !order

let test_preemption () =
  let t = trace_of ~seed:7 in
  Alcotest.(check int) "all steps ran" 16 (List.length t);
  let serial x y = List.init 8 (fun _ -> x) @ List.init 8 (fun _ -> y) in
  let is_serial = t = serial "a" "b" || t = serial "b" "a" in
  Alcotest.(check bool) "charge boundaries preempt" false is_serial

let test_same_seed_same_trace () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d reproduces" seed)
        (trace_of ~seed) (trace_of ~seed))
    [ 0; 7; 42 ]

let test_seed_changes_schedule () =
  (* Not a hard guarantee for any two seeds, but these differ. *)
  Alcotest.(check bool) "seeds 7 and 8 schedule differently" true (trace_of ~seed:7 <> trace_of ~seed:8)

(* --- blocking ----------------------------------------------------- *)

let test_block_wake_waited () =
  let flag = ref false in
  let waited = ref nan in
  let outcomes =
    with_sched (fun sched clock ->
        Sched.spawn sched ~name:"waiter" (fun () ->
            waited :=
              Sched.block_on ~what:"flag" (fun () -> if !flag then Sched.Ready else Sched.Wait));
        Sched.spawn sched ~name:"setter" (fun () ->
            charge clock 200.0;
            flag := true))
  in
  no_deaths outcomes;
  (* The waiter resumed only after the setter's charges: the wait
     spans a positive stretch of virtual time. *)
  Alcotest.(check bool) "waited some virtual time" true (!waited > 0.0)

let test_block_cancel () =
  let exception Poison in
  let armed = ref false in
  let got = ref false in
  let outcomes =
    with_sched (fun sched clock ->
        Sched.spawn sched ~name:"waiter" (fun () ->
            try
              ignore
                (Sched.block_on ~what:"poison" (fun () ->
                     if !armed then Sched.Cancel Poison else Sched.Wait))
            with Poison -> got := true);
        Sched.spawn sched ~name:"armer" (fun () ->
            charge clock 50.0;
            armed := true))
  in
  no_deaths outcomes;
  Alcotest.(check bool) "cancel exception delivered in waiter" true !got

let test_block_timeout () =
  let caught = ref None in
  let outcomes =
    with_sched (fun sched _clock ->
        Sched.spawn sched ~name:"waiter" (fun () ->
            try ignore (Sched.block_on ~timeout_us:300.0 ~what:"never" (fun () -> Sched.Wait))
            with Sched.Timeout { waited_us; _ } -> caught := Some waited_us))
  in
  no_deaths outcomes;
  match !caught with
  | None -> Alcotest.fail "timeout did not fire"
  | Some w -> Alcotest.(check (float 1e-9)) "waited the full timeout" 300.0 w

let test_stuck () =
  Alcotest.check_raises "wedged schedule raises Stuck"
    (Sched.Stuck { blocked = [ "waiter: never" ] })
    (fun () ->
      ignore
        (with_sched (fun sched _clock ->
             Sched.spawn sched ~name:"waiter" (fun () ->
                 ignore (Sched.block_on ~what:"never" (fun () -> Sched.Wait))))))

(* --- masking ------------------------------------------------------ *)

let test_atomically_masks () =
  let order = ref [] in
  let push x = order := x :: !order in
  let outcomes =
    with_sched (fun sched clock ->
        Sched.spawn sched ~name:"a" (fun () ->
            Sched.atomically (fun () ->
                for _ = 1 to 5 do
                  push "a";
                  charge clock 10.0
                done));
        Sched.spawn sched ~name:"b" (fun () ->
            for _ = 1 to 5 do
              push "b";
              charge clock 10.0
            done))
  in
  no_deaths outcomes;
  (* Whatever the interleaving around it, the masked region's five
     steps are contiguous in the trace. *)
  let t = List.rev !order in
  let rec runs = function
    | [] -> []
    | x :: _ as l ->
      let rec take acc = function
        | y :: tl when y = x -> take (acc + 1) tl
        | tl -> ((x, acc), tl)
      in
      let (x, n), tl = take 0 l in
      (x, n) :: runs tl
  in
  let a_runs = List.filter (fun (x, _) -> x = "a") (runs t) in
  Alcotest.(check (list (pair string int))) "masked charges do not preempt" [ ("a", 5) ] a_runs

(* --- off-task degradation ----------------------------------------- *)

let test_off_task_noops () =
  Alcotest.(check bool) "not active outside a run" false (Sched.active ());
  Alcotest.(check (option string)) "no current task" None (Sched.current ());
  Sched.yield ();
  Alcotest.(check int) "atomically is transparent" 3 (Sched.atomically (fun () -> 3));
  Alcotest.(check (float 0.0)) "ready block_on returns immediately" 0.0
    (Sched.block_on ~what:"ready" (fun () -> Sched.Ready));
  Alcotest.check_raises "unsatisfiable off-task wait is an error"
    (Invalid_argument "Sched.block_on: no scheduler active for wait on w") (fun () ->
      ignore (Sched.block_on ~what:"w" (fun () -> Sched.Wait)))

(* --- end-to-end determinism: the multi-client benchmark ----------- *)

let test_mc_deterministic () =
  let run () = Harness.Mc.run ~clients:3 ~txns_per_client:5 ~seed:11 () in
  let a = run () and b = run () in
  Alcotest.(check string) "same seed, same trace digest" a.Harness.Mc.trace_digest
    b.Harness.Mc.trace_digest;
  Alcotest.(check bool) "identical stats" true (a = b);
  let c = Harness.Mc.run ~clients:3 ~txns_per_client:5 ~seed:12 () in
  Alcotest.(check bool) "different seed, different interleaving" true
    (c.Harness.Mc.trace_digest <> a.Harness.Mc.trace_digest)

(* Mc.run arms a trace sink for its digest; none may outlive the run,
   whether it returns or raises. Run as a task of an outer scheduler,
   Mc.run raises from its own Sched.run, after the sink is armed. *)
let test_mc_disarms_sink () =
  let run () = ignore (Harness.Mc.run ~clients:2 ~txns_per_client:3 ~seed:11 ()) in
  run ();
  Alcotest.(check int) "no sink after a run" 0 (Qs_trace.registered ());
  let outer = Sched.create ~seed:1 ~clocks:[] () in
  Sched.spawn outer ~name:"outer" run;
  (match Sched.run outer with
   | [ (_, Some (Invalid_argument _)) ] -> ()
   | _ -> Alcotest.fail "nested Mc.run should raise Invalid_argument");
  Alcotest.(check int) "no sink after a raise" 0 (Qs_trace.registered ())

let () =
  Alcotest.run "sched"
    [ ( "interleaving"
      , [ Alcotest.test_case "charge boundaries preempt" `Quick test_preemption
        ; Alcotest.test_case "same seed same trace" `Quick test_same_seed_same_trace
        ; Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule ] )
    ; ( "blocking"
      , [ Alcotest.test_case "block, wake, waited" `Quick test_block_wake_waited
        ; Alcotest.test_case "cancel" `Quick test_block_cancel
        ; Alcotest.test_case "timeout" `Quick test_block_timeout
        ; Alcotest.test_case "stuck" `Quick test_stuck ] )
    ; ("masking", [ Alcotest.test_case "atomically masks preemption" `Quick test_atomically_masks ])
    ; ("off-task", [ Alcotest.test_case "primitives degrade to no-ops" `Quick test_off_task_noops ])
    ; ( "end-to-end"
      , [ Alcotest.test_case "multi-client bench is deterministic" `Quick test_mc_deterministic
        ; Alcotest.test_case "multi-client bench disarms its sink" `Quick test_mc_disarms_sink ] )
    ]
