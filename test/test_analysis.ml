(* qs_lint rule tests: one positive fixture (violation found) and one
   negative fixture (exempt path or allow attribute) per rule family,
   running the analyzer on in-memory sources. *)

module Lint = Qs_analysis.Lint

let rules_of ~path contents =
  List.map (fun f -> f.Lint.rule) (Lint.lint_source ~path ~contents)

let check_rules name expected ~path contents =
  Alcotest.(check (list string)) name expected (rules_of ~path contents)

(* --- QS001: raw page bytes --- *)

let qs001_src = "let f b = Bytes.get b 0\nlet g b = Bytes.set b 1 'x'\n"

let test_qs001 () =
  check_rules "flagged in lib/core" [ "QS001"; "QS001" ] ~path:"lib/core/foo.ml" qs001_src;
  check_rules "blit too" [ "QS001" ] ~path:"lib/core/foo.ml"
    "let h a b = Bytes.blit a 0 b 0 8\n";
  check_rules "byte core exempt" [] ~path:"lib/esm/page.ml" qs001_src;
  check_rules "codec exempt" [] ~path:"lib/util/codec.ml" qs001_src;
  check_rules "vmsim exempt" [] ~path:"lib/vmsim/vmsim.ml" qs001_src;
  check_rules "file allow" [] ~path:"lib/core/foo.ml"
    ("[@@@qs_lint.allow \"QS001\"]\n" ^ qs001_src);
  check_rules "expression allow" [] ~path:"lib/core/foo.ml"
    "let f b = (Bytes.get b 0 [@qs_lint.allow \"QS001\"])\n";
  check_rules "expression allow is scoped" [ "QS001" ] ~path:"lib/core/foo.ml"
    "let f b = (Bytes.get b 0 [@qs_lint.allow \"QS001\"])\nlet g b = Bytes.get b 1\n";
  check_rules "unrelated Bytes ops pass" [] ~path:"lib/core/foo.ml"
    "let f b = Bytes.length b + Bytes.length (Bytes.copy b)\n"

(* --- QS002: Obj.magic --- *)

let test_qs002 () =
  check_rules "flagged everywhere" [ "QS002" ] ~path:"lib/esm/page.ml"
    "let f (x : int) : string = Obj.magic x\n";
  check_rules "flagged in bin" [ "QS002" ] ~path:"bin/main.ml" "let f x = Obj.magic x\n";
  check_rules "allow attribute" [] ~path:"bin/main.ml"
    "let f x = (Obj.magic x [@qs_lint.allow \"QS002\"])\n";
  check_rules "Obj.repr untouched" [] ~path:"bin/main.ml" "let f x = Obj.repr x\n"

(* --- QS003: polymorphic compare on identity values --- *)

let test_qs003 () =
  check_rules "oid = oid" [ "QS003" ] ~path:"lib/core/foo.ml"
    "let f oid other_oid = oid = other_oid\n";
  check_rules "suffix _oid" [ "QS003" ] ~path:"lib/core/foo.ml"
    "let f root_oid x = x <> root_oid\n";
  check_rules "compare on ptrs" [ "QS003" ] ~path:"lib/core/foo.ml"
    "let f a_ptr b_ptr = compare a_ptr b_ptr\n";
  check_rules "hash on desc" [ "QS003" ] ~path:"lib/core/foo.ml"
    "let f desc = Hashtbl.hash desc\n";
  check_rules "field access operand" [ "QS003" ] ~path:"lib/core/foo.ml"
    "let f e x = x = e.oid\n";
  check_rules "Oid.null operand" [ "QS003" ] ~path:"lib/core/foo.ml"
    "let f x = x = Oid.null\n";
  check_rules "Oid.equal is the fix" [] ~path:"lib/core/foo.ml"
    "let f oid other_oid = Oid.equal oid other_oid\n";
  check_rules "neutral names pass" [] ~path:"lib/core/foo.ml" "let f a b = a = b\n";
  check_rules "int compare passes" [] ~path:"lib/core/foo.ml"
    "let f (page : int) n = compare page n\n"

(* --- QS004: gated calls (cost-charge bypasses) --- *)

let test_qs004 () =
  check_rules "set_prot_free in lib/core" [ "QS004" ] ~path:"lib/core/foo.ml"
    "let f vm = Vmsim.set_prot_free vm ~frame:0 Vmsim.Prot_write\n";
  check_rules "clock reset in lib/esm" [ "QS004" ] ~path:"lib/esm/foo.ml"
    "let f c = Clock.reset c\n";
  check_rules "harness exempt" [] ~path:"lib/harness/runner.ml"
    "let f vm c = Vmsim.set_prot_free vm ~frame:0 Vmsim.Prot_read; Clock.reset c\n";
  check_rules "vmsim exempt" [] ~path:"lib/vmsim/vmsim.ml" "let f t = set_prot_free t\n";
  check_rules "test exempt" [] ~path:"test/test_foo.ml" "let f c = Clock.reset c\n";
  check_rules "file allow" [] ~path:"examples/demo.ml"
    "[@@@qs_lint.allow \"QS004\"]\nlet f c = Clock.reset c\n";
  check_rules "unqualified reset passes" [] ~path:"lib/core/foo.ml" "let f h = reset h\n"

(* --- QS005: fault handler without cost charging --- *)

let test_qs005 () =
  check_rules "handler, no charge" [ "QS005" ] ~path:"lib/core/foo.ml"
    "let f vm h = Vmsim.set_fault_handler vm h\n";
  check_rules "handler plus charge" [] ~path:"lib/core/foo.ml"
    "let f vm h clock = Vmsim.set_fault_handler vm h; Qs_trace.charge clock 1\n";
  check_rules "charge_n counts" [] ~path:"lib/core/foo.ml"
    "let f vm h clock = Vmsim.set_fault_handler vm h; Qs_trace.charge_n clock 2 3\n";
  check_rules "test exempt" [] ~path:"test/test_foo.ml"
    "let f vm h = Vmsim.set_fault_handler vm h\n";
  check_rules "no handler, no finding" [] ~path:"lib/core/foo.ml" "let f x = x + 1\n"

(* --- QS006: stringly failure in lib/ --- *)

let test_qs006 () =
  check_rules "failwith in lib" [ "QS006" ] ~path:"lib/core/foo.ml"
    "let f () = failwith \"boom\"\n";
  check_rules "bin exempt" [] ~path:"bin/main.ml" "let f () = failwith \"usage\"\n";
  check_rules "typed raise passes" [] ~path:"lib/core/foo.ml"
    "exception Boom\nlet f () = raise Boom\n"

(* --- QS007: direct disk I/O outside lib/esm --- *)

let test_qs007 () =
  check_rules "Disk.read in lib/core" [ "QS007" ] ~path:"lib/core/foo.ml"
    "let f d b = Esm.Disk.read d 1 b\n";
  check_rules "Disk.write in lib/harness" [ "QS007" ] ~path:"lib/harness/foo.ml"
    "let f d b = Disk.write d 1 b\n";
  check_rules "lib/esm exempt" [] ~path:"lib/esm/server.ml" "let f d b = Disk.read d 1 b\n";
  check_rules "bin tools exempt" [] ~path:"bin/qs_dump.ml" "let f d b = Esm.Disk.read d 1 b\n";
  check_rules "tests exempt" [] ~path:"test/test_foo.ml" "let f d b = Disk.write d 1 b\n";
  check_rules "allow attribute" [] ~path:"lib/core/foo.ml"
    "let f d b = (Esm.Disk.read d 1 b [@qs_lint.allow \"QS007\"])\n";
  check_rules "metadata ops pass" [] ~path:"lib/core/foo.ml"
    "let f d = Esm.Disk.alloc d + Esm.Disk.size_bytes d\n"

(* --- QS008: untraced clock charges outside simclock/obs --- *)

let test_qs008 () =
  check_rules "Clock.charge in lib/core" [ "QS008" ] ~path:"lib/core/foo.ml"
    "let f c = Simclock.Clock.charge c Simclock.Category.Diff 1.0\n";
  check_rules "Clock.charge_n in lib/esm" [ "QS008" ] ~path:"lib/esm/foo.ml"
    "let f c = Clock.charge_n c Category.Min_fault 3 0.5\n";
  check_rules "simclock exempt" [] ~path:"lib/simclock/clock.ml"
    "let f c = Clock.charge c cat 1.0\n";
  check_rules "obs exempt" [] ~path:"lib/obs/qs_trace.ml"
    "let charge = Clock.charge\n";
  check_rules "bin tools exempt" [] ~path:"bin/qs_prof.ml"
    "let f c = Simclock.Clock.charge c cat 1.0\n";
  check_rules "tests exempt" [] ~path:"test/test_foo.ml" "let f c = Clock.charge c cat 1.0\n";
  check_rules "Qs_trace.charge is the fix" [] ~path:"lib/core/foo.ml"
    "let f c = Qs_trace.charge c Simclock.Category.Diff 1.0\n";
  check_rules "allow attribute" [] ~path:"lib/core/foo.ml"
    "let f c = (Simclock.Clock.charge c cat 1.0 [@qs_lint.allow \"QS008\"])\n"

(* --- QS009: unsafe byte access outside the Vmsim fast path --- *)

let test_qs009 () =
  check_rules "unsafe_get in lib/core" [ "QS009" ] ~path:"lib/core/foo.ml"
    "let f b = Bytes.unsafe_get b 0\n";
  check_rules "unsafe_set in lib/esm" [ "QS009" ] ~path:"lib/esm/foo.ml"
    "let f b = Bytes.unsafe_set b 0 'x'\n";
  check_rules "unsafe_blit too" [ "QS009" ] ~path:"lib/core/foo.ml"
    "let f a b = Bytes.unsafe_blit a 0 b 0 8\n";
  check_rules "vmsim exempt" [] ~path:"lib/vmsim/vmsim.ml" "let f b = Bytes.unsafe_get b 0\n";
  check_rules "util exempt" [] ~path:"lib/util/codec.ml" "let f b = Bytes.unsafe_get b 0\n";
  check_rules "allow attribute" [] ~path:"lib/core/foo.ml"
    "let f b = (Bytes.unsafe_get b 0 [@qs_lint.allow \"QS009\"])\n";
  check_rules "safe Bytes ops are QS001's business" [ "QS001" ] ~path:"lib/core/foo.ml"
    "let f b = Bytes.get b 0\n"

(* --- QS010: server page mutation outside lib/esm --- *)

let test_qs010 () =
  check_rules "Server.write_page in lib/core" [ "QS010" ] ~path:"lib/core/foo.ml"
    "let f s b = Esm.Server.write_page s ~txn:1 ~at_commit:true 3 b\n";
  check_rules "Server.apply_regions in lib/harness" [ "QS010" ] ~path:"lib/harness/foo.ml"
    "let f s r = Server.apply_regions s ~txn:1 ~seq:0 3 r\n";
  check_rules "lib/esm exempt" [] ~path:"lib/esm/client.ml"
    "let f s b = Server.write_page s ~txn:1 ~at_commit:true 3 b\n";
  check_rules "bin tools exempt" [] ~path:"bin/qs_dump.ml"
    "let f s b = Esm.Server.write_page s ~txn:1 ~at_commit:false 3 b\n";
  check_rules "tests exempt" [] ~path:"test/test_foo.ml"
    "let f s r = Esm.Server.apply_regions s ~txn:1 ~seq:0 3 r\n";
  check_rules "allow attribute" [] ~path:"lib/core/foo.ml"
    "let f s r = (Esm.Server.apply_regions s ~txn:1 ~seq:0 3 r [@qs_lint.allow \"QS010\"])\n";
  check_rules "read path passes" [] ~path:"lib/core/foo.ml"
    "let f s b = Esm.Server.read_page s ~kind:Esm.Server.Data 3 b\n";
  check_rules "Client ships are the fix" [] ~path:"lib/core/foo.ml"
    "let f c r = Esm.Client.ship_regions c ~page_id:3 r\n"

(* --- QS000: parse errors --- *)

let test_qs000 () =
  check_rules "unclosed paren" [ "QS000" ] ~path:"lib/core/foo.ml" "let f = (\n";
  (* The finding carries the parser's actual diagnostic, not a bare
     "parse error" stub. *)
  match Lint.lint_source ~path:"lib/core/foo.ml" ~contents:"let f = (\n" with
  | [ f ] ->
    let prefix = "parse error: " in
    Alcotest.(check bool) "message has parse-error prefix" true
      (String.length f.Lint.msg > String.length prefix
      && String.sub f.Lint.msg 0 (String.length prefix) = prefix)
  | fs -> Alcotest.fail (Printf.sprintf "expected one finding, got %d" (List.length fs))

(* --- allow-attribute stacking --- *)

let test_allow_dedup () =
  (* Duplicate allows on one node are deduped, and nested duplicates
     unwind correctly: the inner scope's exit must not strip the rule
     while the outer duplicate is still live. *)
  check_rules "duplicate attrs on one node" [ "QS001" ] ~path:"lib/core/foo.ml"
    "let f b = (Bytes.get b 0 [@qs_lint.allow \"QS001\"] [@qs_lint.allow \"QS001\"])\n\
     let g b = Bytes.get b 1\n";
  check_rules "nested duplicate attrs" [ "QS001" ] ~path:"lib/core/foo.ml"
    "let f b = ((Bytes.get b 0 [@qs_lint.allow \"QS001\"]) [@qs_lint.allow \"QS001\"])\n\
     let g b = Bytes.get b 1\n";
  check_rules "one attr, several rules" [] ~path:"lib/core/foo.ml"
    "let f b = (Bytes.unsafe_get (Obj.magic b) 0 [@qs_lint.allow \"QS002\" \"QS009\"])\n"

(* --- plumbing --- *)

let test_path_policy () =
  Alcotest.(check bool) "QS001 off in vmsim" false
    (Lint.rule_applies ~path:"lib/vmsim/vmsim.ml" "QS001");
  Alcotest.(check bool) "QS001 on in core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS001");
  Alcotest.(check bool) "QS004 off in harness" false
    (Lint.rule_applies ~path:"lib/harness/runner.ml" "QS004");
  Alcotest.(check bool) "QS006 only in lib" false (Lint.rule_applies ~path:"bench/main.ml" "QS006");
  Alcotest.(check bool) "QS002 everywhere" true (Lint.rule_applies ~path:"bench/main.ml" "QS002");
  Alcotest.(check bool) "QS007 off in lib/esm" false
    (Lint.rule_applies ~path:"lib/esm/recovery.ml" "QS007");
  Alcotest.(check bool) "QS007 on in lib/core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS007");
  Alcotest.(check bool) "QS007 off in bin" false (Lint.rule_applies ~path:"bin/qs_dump.ml" "QS007");
  Alcotest.(check bool) "QS008 on in core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS008");
  Alcotest.(check bool) "QS008 off in simclock" false
    (Lint.rule_applies ~path:"lib/simclock/clock.ml" "QS008");
  Alcotest.(check bool) "QS008 off in obs" false
    (Lint.rule_applies ~path:"lib/obs/qs_trace.ml" "QS008");
  Alcotest.(check bool) "QS008 off in bin" false (Lint.rule_applies ~path:"bin/qs_prof.ml" "QS008");
  Alcotest.(check bool) "QS009 off in vmsim" false
    (Lint.rule_applies ~path:"lib/vmsim/vmsim.ml" "QS009");
  Alcotest.(check bool) "QS009 off in util" false
    (Lint.rule_applies ~path:"lib/util/codec.ml" "QS009");
  Alcotest.(check bool) "QS009 on in core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS009");
  Alcotest.(check bool) "QS009 on in bench" true (Lint.rule_applies ~path:"bench/main.ml" "QS009");
  Alcotest.(check bool) "QS010 off in lib/esm" false
    (Lint.rule_applies ~path:"lib/esm/client.ml" "QS010");
  Alcotest.(check bool) "QS010 on in lib/core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS010");
  Alcotest.(check bool) "QS010 on in lib/harness" true
    (Lint.rule_applies ~path:"lib/harness/torture.ml" "QS010");
  Alcotest.(check bool) "QS010 off in bin" false
    (Lint.rule_applies ~path:"bin/qs_prof.ml" "QS010");
  Alcotest.(check bool) "QS011 on in lib/esm" true
    (Lint.rule_applies ~path:"lib/esm/client.ml" "QS011");
  Alcotest.(check bool) "QS011 off in lib/analysis" false
    (Lint.rule_applies ~path:"lib/analysis/lint.ml" "QS011");
  Alcotest.(check bool) "QS011 off in bin" false
    (Lint.rule_applies ~path:"bin/qs_dump.ml" "QS011");
  Alcotest.(check bool) "QS012 on in lib/core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS012");
  Alcotest.(check bool) "QS012 off in lib/harness" false
    (Lint.rule_applies ~path:"lib/harness/torture.ml" "QS012");
  Alcotest.(check bool) "QS013 on in lib/esm server" true
    (Lint.rule_applies ~path:"lib/esm/server.ml" "QS013");
  Alcotest.(check bool) "QS013 off in the wal primitive" false
    (Lint.rule_applies ~path:"lib/esm/wal.ml" "QS013");
  Alcotest.(check bool) "QS013 off in the disk primitive" false
    (Lint.rule_applies ~path:"lib/esm/disk.ml" "QS013");
  Alcotest.(check bool) "QS014 on in lib/core" true
    (Lint.rule_applies ~path:"lib/core/store.ml" "QS014");
  Alcotest.(check bool) "QS014 off in test" false
    (Lint.rule_applies ~path:"test/test_foo.ml" "QS014");
  Alcotest.(check bool) "QS016 on in lib/esm" true
    (Lint.rule_applies ~path:"lib/esm/client.ml" "QS016");
  Alcotest.(check bool) "QS016 off in the analyzer" false
    (Lint.rule_applies ~path:"lib/analysis/snapshot_path.ml" "QS016");
  Alcotest.(check bool) "QS016 off in bin" false
    (Lint.rule_applies ~path:"bin/qs_prof.ml" "QS016");
  Alcotest.(check bool) "QS017 on in lib/esm" true
    (Lint.rule_applies ~path:"lib/esm/log_index.ml" "QS017");
  Alcotest.(check bool) "QS017 off in the analyzer" false
    (Lint.rule_applies ~path:"lib/analysis/merge_path.ml" "QS017");
  Alcotest.(check bool) "QS017 off in test" false
    (Lint.rule_applies ~path:"test/test_log_index.ml" "QS017")

let test_report_format () =
  match Lint.lint_source ~path:"lib/core/foo.ml" ~contents:"let f b =\n  Bytes.get b 0\n" with
  | [ f ] ->
    Alcotest.(check int) "line" 2 f.Lint.line;
    let s = Lint.to_string f in
    Alcotest.(check bool) "grep-able report line" true
      (String.length s > 0
      && String.sub s 0 (String.length "lib/core/foo.ml:2: QS001") = "lib/core/foo.ml:2: QS001")
  | fs -> Alcotest.fail (Printf.sprintf "expected one finding, got %d" (List.length fs))

let test_all_rules_listed () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " well-formed") true
        (String.length r = 5 && String.sub r 0 2 = "QS"))
    Lint.all_rules;
  (* QS000 (parse error) is a pseudo-rule, not an enforceable one. *)
  Alcotest.(check int) "sixteen enforceable rules" 16 (List.length Lint.all_rules);
  Alcotest.(check bool) "QS000 not listed" false (List.mem "QS000" Lint.all_rules)

(* ================================================================== *)
(* Whole-program analyzer (qs_deps): QS011–QS014 on synthetic trees.   *)

module Deps = Qs_analysis.Qs_deps
module Effects = Qs_analysis.Effects
module Lockorder = Qs_analysis.Lockorder

let deps_rules files =
  List.map (fun f -> f.Lint.rule) (Deps.analyze files).Deps.findings

let check_deps name expected files =
  Alcotest.(check (list string)) name expected (deps_rules files)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- QS011: lock-order cycle --- *)

let ab_src =
  "let f t p q =\n\
  \  lock_page t p Lock_mgr.Exclusive;\n\
  \  lock_file t q Lock_mgr.Shared\n"

let ba_src =
  "let g t p q =\n\
  \  lock_file t q Lock_mgr.Shared;\n\
  \  lock_page t p Lock_mgr.Exclusive\n"

let test_qs011_cycle () =
  (* Opposite acquisition orders in two modules: Page -> File and
     File -> Page close a cycle; each asserting site is flagged. *)
  check_deps "cycle flagged at both sites" [ "QS011"; "QS011" ]
    [ ("lib/esm/fake_ab.ml", ab_src); ("lib/esm/fake_ba.ml", ba_src) ];
  (* A consistent global order is acyclic: edges exist, no findings. *)
  let r = Deps.analyze [ ("lib/esm/fake_ab.ml", ab_src) ] in
  Alcotest.(check int) "one order edge" 1 (List.length r.Deps.edges);
  Alcotest.(check (list string)) "consistent order is clean" [] (Lockorder.cycles r.Deps.edges);
  (* File-level allows on both sides silence the cycle. *)
  check_deps "allowlisted cycle is silent" []
    [ ("lib/esm/fake_ab.ml", "[@@@qs_lint.allow \"QS011\"]\n" ^ ab_src)
    ; ("lib/esm/fake_ba.ml", "[@@@qs_lint.allow \"QS011\"]\n" ^ ba_src) ]

(* --- QS012: lock held across a charge boundary --- *)

let help_src = "let bill c = Qs_trace.charge c Simclock.Category.Diff 1.0\n"

let test_qs012_window () =
  (* The charge is reached transitively through a cross-module helper:
     only interprocedural propagation can see it. *)
  check_deps "transitive charge under lock" [ "QS012" ]
    [ ("lib/esm/fake_help.ml", help_src)
    ; ( "lib/esm/fake_use.ml"
      , "let f t c p =\n  lock_page t p Lock_mgr.Exclusive;\n  Fake_help.bill c\n" ) ];
  check_deps "allowlisted window is silent" []
    [ ("lib/esm/fake_help.ml", help_src)
    ; ( "lib/esm/fake_use.ml"
      , "let f t c p =\n\
        \  (lock_page t p Lock_mgr.Exclusive [@qs_lint.allow \"QS012\"]);\n\
        \  Fake_help.bill c\n" ) ];
  check_deps "charge before the acquisition is clean" []
    [ ("lib/esm/fake_help.ml", help_src)
    ; ("lib/esm/fake_use.ml", "let g t c p =\n  Fake_help.bill c;\n  lock_page t p Lock_mgr.Exclusive\n")
    ];
  check_deps "release closes the window" []
    [ ("lib/esm/fake_help.ml", help_src)
    ; ( "lib/esm/fake_use.ml"
      , "let h t c p =\n\
        \  lock_page t p Lock_mgr.Exclusive;\n\
        \  Lock_mgr.release_all t;\n\
        \  Fake_help.bill c\n" ) ];
  (* A blocking point also closes the window: once the path parks on
     the scheduler, the lock manager's waits-for graph watches the
     wait dynamically, so the hold is no longer a silent hazard. *)
  check_deps "a block closes the window" []
    [ ("lib/esm/fake_help.ml", help_src)
    ; ( "lib/esm/fake_use.ml"
      , "let b t c p w =\n\
        \  lock_page t p Lock_mgr.Exclusive;\n\
        \  ignore (Sched.block_on ~what:w check);\n\
        \  Fake_help.bill c\n" ) ];
  (* A blocking acquisition never arms at all. *)
  check_deps "blocking acquire is not a window" []
    [ ("lib/esm/fake_help.ml", help_src)
    ; ( "lib/esm/fake_use.ml"
      , "let a t txn c r m w =\n\
        \  Lock_mgr.acquire_blocking t ~txn ~wait:w r m;\n\
        \  Fake_help.bill c\n" ) ]

(* --- QS013: durable write with no crash point before it --- *)

let test_qs013_coverage () =
  check_deps "bare force flagged" [ "QS013" ]
    [ ("lib/esm/fake_flush.ml", "let flush w = ignore (Wal.force w)\n") ];
  check_deps "direct hit covers" []
    [ ( "lib/esm/fake_flush.ml"
      , "let flush t w =\n\
        \  Qs_fault.hit t Qs_fault.Point.Commit_pre_flush;\n\
        \  ignore (Wal.force w)\n" ) ];
  (* Coverage through a helper: the hit is inside [guard], and the
     effect summary carries the crash surface to the call site. *)
  check_deps "transitive hit covers" []
    [ ( "lib/esm/fake_flush.ml"
      , "let guard t = Qs_fault.hit t Qs_fault.Point.Commit_pre_flush\n\
         let flush t w =\n\
        \  guard t;\n\
        \  ignore (Wal.force w)\n" ) ];
  check_deps "allowlisted force is silent" []
    [ ("lib/esm/fake_flush.ml", "let flush w = ignore (Wal.force w [@qs_lint.allow \"QS013\"])\n") ]

(* --- QS014: resource leak on an exceptional path --- *)

let leak_prelude = "exception Boom\nlet risky () = raise Boom\n"

let test_qs014_leak () =
  check_deps "unprotected pin across a raiser" [ "QS014" ]
    [ ( "lib/esm/fake_leak.ml"
      , leak_prelude
        ^ "let f c p =\n\
          \  let frame = Client.fix_page c ~kind:Server.Data p in\n\
          \  risky ();\n\
          \  Client.unfix_page c ~frame\n" ) ];
  check_deps "Fun.protect finally is safe" []
    [ ( "lib/esm/fake_leak.ml"
      , leak_prelude
        ^ "let g c p =\n\
          \  let frame = Client.fix_page c ~kind:Server.Data p in\n\
          \  Fun.protect ~finally:(fun () -> Client.unfix_page c ~frame) (fun () -> risky ())\n" )
    ];
  check_deps "handler release is safe" []
    [ ( "lib/esm/fake_leak.ml"
      , leak_prelude
        ^ "let h c p =\n\
          \  let frame = Client.fix_page c ~kind:Server.Data p in\n\
          \  (try risky () with Boom -> Client.unfix_page c ~frame; raise Boom);\n\
          \  Client.unfix_page c ~frame\n" ) ];
  (* Acquire and release in sibling match arms are different execution
     paths: no pair, hence an escaping pin, hence clean. *)
  check_deps "sibling-arm release does not pair" []
    [ ( "lib/esm/fake_leak.ml"
      , leak_prelude
        ^ "let k c p frames =\n\
          \  match frames with\n\
          \  | [] -> Client.fix_page c ~kind:Server.Data p\n\
          \  | fr :: _ ->\n\
          \    risky ();\n\
          \    Client.unfix_page c ~frame:fr;\n\
          \    fr\n" ) ];
  check_deps "allowlisted pin is silent" []
    [ ( "lib/esm/fake_leak.ml"
      , leak_prelude
        ^ "let f c p =\n\
          \  let frame = (Client.fix_page c ~kind:Server.Data p [@qs_lint.allow \"QS014\"]) in\n\
          \  risky ();\n\
          \  Client.unfix_page c ~frame\n" ) ]

(* --- QS016: lock acquisition reachable from the snapshot-read path --- *)

let test_qs016_snapshot () =
  (* A function named like a snapshot-path entry point that takes a
     page lock directly is flagged at the acquisition site. *)
  check_deps "direct lock on the snapshot path" [ "QS016" ]
    [ ( "lib/esm/fake_snap.ml"
      , "let snapshot_fix_page t p =\n  lock_page t p Lock_mgr.Shared\n" ) ];
  (* Reachability is transitive and crosses modules: the root calls a
     clean-looking helper whose helper locks. Both non-root functions
     are only flagged because the root reaches them. *)
  check_deps "transitive lock through a helper" [ "QS016" ]
    [ ("lib/esm/fake_snap_help.ml", "let deep t p = lock_page t p Lock_mgr.Shared\nlet step t p = deep t p\n")
    ; ("lib/esm/fake_snap.ml", "let with_snapshot_txn t p = Fake_snap_help.step t p\n") ];
  (* The same helper with no snapshot root anywhere is not QS016's
     business (QS011 needs two orders for a cycle, so it stays quiet). *)
  check_deps "lock off the snapshot path is clean" []
    [ ("lib/esm/fake_snap_help.ml", "let step t p = lock_page t p Lock_mgr.Shared\n") ];
  (* A realistic lock-free snapshot read: materialize + charge, no
     acquisition anywhere. *)
  check_deps "lock-free snapshot path is clean" []
    [ ( "lib/esm/fake_snap.ml"
      , "let read_page_at t ~snap page dst =\n\
        \  Version_store.materialize t ~lsn:snap page dst;\n\
        \  Qs_trace.charge t Simclock.Category.Snapshot_read 1.0\n" ) ];
  (* An expression-level allow (with its rationale in real code)
     silences the finding at that site only. *)
  check_deps "allowlisted acquisition is silent" []
    [ ( "lib/esm/fake_snap.ml"
      , "let snapshot_fix_page t p =\n\
        \  (lock_page t p Lock_mgr.Shared [@qs_lint.allow \"QS016\"])\n" ) ];
  (* Path policy: the same source under lib/analysis is exempt. *)
  check_deps "analyzer sources are exempt" []
    [ ( "lib/analysis/fake_snap.ml"
      , "let snapshot_fix_page t p =\n  lock_page t p Lock_mgr.Shared\n" ) ]

(* --- QS017: page lock held across a charge on the merge path --- *)

let mg_help_src = "let grab t p = lock_page t p Lock_mgr.Shared\n"

let test_qs017_merge () =
  (* A transitive acquisition (through a helper, so QS012's
     direct-only scan stays quiet) held across a charge inside a
     merge-named root: flagged at the arming call site. *)
  check_deps "transitive lock across a charge in a merge" [ "QS017" ]
    [ ("lib/esm/fake_mg_help.ml", mg_help_src)
    ; ( "lib/esm/fake_mg.ml"
      , "let do_merge t c p =\n\
        \  Fake_mg_help.grab t p;\n\
        \  Qs_trace.charge c Simclock.Category.Diff 1.0\n" ) ];
  (* A direct acquisition in the merge root trips both the general
     window rule and the merge-path rule, at the same site. *)
  check_deps "direct lock is both QS012 and QS017" [ "QS012"; "QS017" ]
    [ ( "lib/esm/fake_mg.ml"
      , "let merge t c p =\n\
        \  lock_page t p Lock_mgr.Shared;\n\
        \  Qs_trace.charge c Simclock.Category.Diff 1.0\n" ) ];
  (* The identical shape under a non-merge name is not QS017's
     business. *)
  check_deps "lock off the merge path is clean" []
    [ ("lib/esm/fake_mg_help.ml", mg_help_src)
    ; ( "lib/esm/fake_mg.ml"
      , "let rebuild t c p =\n\
        \  Fake_mg_help.grab t p;\n\
        \  Qs_trace.charge c Simclock.Category.Diff 1.0\n" ) ];
  (* The real merge's discipline — fix, charge, unfix, no lock
     manager anywhere — is clean. *)
  check_deps "lock-free merge is clean" []
    [ ( "lib/esm/fake_mg.ml"
      , "let do_merge t c p =\n\
        \  let frame = Client.fix_page c ~kind:Server.Index p in\n\
        \  Qs_trace.charge c Simclock.Category.Diff 1.0;\n\
        \  Client.unfix_page c ~frame\n" ) ];
  (* An expression-level allow (with its rationale in real code)
     silences the finding at that site only. *)
  check_deps "allowlisted merge window is silent" []
    [ ("lib/esm/fake_mg_help.ml", mg_help_src)
    ; ( "lib/esm/fake_mg.ml"
      , "let do_merge t c p =\n\
        \  (Fake_mg_help.grab t p [@qs_lint.allow \"QS017\"]);\n\
        \  Qs_trace.charge c Simclock.Category.Diff 1.0\n" ) ];
  (* A release between the acquisition and the charge closes the
     window, exactly as in QS012. *)
  check_deps "release closes the merge window" []
    [ ("lib/esm/fake_mg_help.ml", mg_help_src)
    ; ( "lib/esm/fake_mg.ml"
      , "let do_merge t c p =\n\
        \  Fake_mg_help.grab t p;\n\
        \  Lock_mgr.release_all t;\n\
        \  Qs_trace.charge c Simclock.Category.Diff 1.0\n" ) ]

(* --- fixpoint termination and effect propagation --- *)

let mutual_src =
  "let rec even n c = if n = 0 then Qs_trace.charge c Simclock.Category.Diff 1.0 else odd (n - 1) c\n\
   and odd n c = if n = 0 then () else even (n - 1) c\n"

let test_fixpoint_mutual () =
  (* Mutually recursive functions: the fixpoint must terminate, and the
     charge effect must propagate around the even/odd loop. *)
  let r = Deps.analyze [ ("lib/esm/fake_mutual.ml", mutual_src) ] in
  Alcotest.(check bool) "even charges" true
    (Effects.get r.Deps.summaries "lib/esm/fake_mutual.ml:Fake_mutual.even").Effects.charges;
  Alcotest.(check bool) "odd charges transitively" true
    (Effects.get r.Deps.summaries "lib/esm/fake_mutual.ml:Fake_mutual.odd").Effects.charges;
  Alcotest.(check (list string)) "no findings" [] (deps_rules [ ("lib/esm/fake_mutual.ml", mutual_src) ])

let test_effects_json () =
  let files = [ ("lib/esm/fake_help.ml", help_src); ("lib/esm/fake_mutual.ml", mutual_src) ] in
  let j1 = Deps.effects_json (Deps.analyze files) in
  let j2 = Deps.effects_json (Deps.analyze files) in
  Alcotest.(check string) "two runs are byte-identical" j1 j2;
  Alcotest.(check bool) "helper row present" true (contains j1 "\"function\":\"Fake_help.bill\"");
  Alcotest.(check bool) "charge flag serialized" true (contains j1 "\"charges\":true")

let () =
  Alcotest.run "analysis"
    [ ( "rules"
      , [ Alcotest.test_case "QS001 raw page bytes" `Quick test_qs001
        ; Alcotest.test_case "QS002 obj magic" `Quick test_qs002
        ; Alcotest.test_case "QS003 poly compare" `Quick test_qs003
        ; Alcotest.test_case "QS004 gated calls" `Quick test_qs004
        ; Alcotest.test_case "QS005 handler without charge" `Quick test_qs005
        ; Alcotest.test_case "QS006 stringly failure" `Quick test_qs006
        ; Alcotest.test_case "QS007 direct disk io" `Quick test_qs007
        ; Alcotest.test_case "QS008 untraced charge" `Quick test_qs008
        ; Alcotest.test_case "QS009 unsafe bytes" `Quick test_qs009
        ; Alcotest.test_case "QS010 server page mutation" `Quick test_qs010
        ; Alcotest.test_case "QS000 parse error" `Quick test_qs000
        ; Alcotest.test_case "allow dedup" `Quick test_allow_dedup ] )
    ; ( "qs_deps"
      , [ Alcotest.test_case "QS011 lock-order cycle" `Quick test_qs011_cycle
        ; Alcotest.test_case "QS012 lock across charge" `Quick test_qs012_window
        ; Alcotest.test_case "QS013 crash-point coverage" `Quick test_qs013_coverage
        ; Alcotest.test_case "QS014 exception-path leak" `Quick test_qs014_leak
        ; Alcotest.test_case "QS016 snapshot-path lock freedom" `Quick test_qs016_snapshot
        ; Alcotest.test_case "QS017 merge-path lock discipline" `Quick test_qs017_merge
        ; Alcotest.test_case "fixpoint on mutual recursion" `Quick test_fixpoint_mutual
        ; Alcotest.test_case "effects json determinism" `Quick test_effects_json ] )
    ; ( "plumbing"
      , [ Alcotest.test_case "path policy" `Quick test_path_policy
        ; Alcotest.test_case "report format" `Quick test_report_format
        ; Alcotest.test_case "rule list" `Quick test_all_rules_listed ] ) ]
