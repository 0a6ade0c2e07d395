(* Virtual-memory simulation tests: protection semantics, fault
   dispatch and retry, the one-call global reprotect, and access
   charging. *)

module Clock = Simclock.Clock
module Cat = Simclock.Category

let mk () =
  let clock = Clock.create () in
  (clock, Vmsim.create ~clock ~cm:Simclock.Cost_model.default ())

let buf c = Bytes.make Vmsim.frame_size c

let test_address_arithmetic () =
  Alcotest.(check int) "frame" 5 (Vmsim.frame_of_addr ((5 * 8192) + 100));
  Alcotest.(check int) "offset" 100 (Vmsim.offset_of_addr ((5 * 8192) + 100));
  Alcotest.(check int) "addr" (5 * 8192) (Vmsim.addr_of_frame 5)

let test_read_requires_protection () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:3 ~buf:(buf 'x');
  (match Vmsim.read_u8 vm (3 * 8192) with
   | _ -> Alcotest.fail "expected fault on Prot_none"
   | exception Vmsim.Unhandled_fault { access = Vmsim.Read; _ } -> ());
  Vmsim.set_prot vm ~frame:3 Vmsim.Prot_read;
  Alcotest.(check int) "readable" (Char.code 'x') (Vmsim.read_u8 vm (3 * 8192))

let test_write_requires_write_prot () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:1 ~buf:(buf 'a');
  Vmsim.set_prot vm ~frame:1 Vmsim.Prot_read;
  (match Vmsim.write_u8 vm 8192 65 with
   | () -> Alcotest.fail "expected write fault"
   | exception Vmsim.Unhandled_fault { access = Vmsim.Write; _ } -> ());
  Vmsim.set_prot vm ~frame:1 Vmsim.Prot_write;
  Vmsim.write_u8 vm 8192 65;
  Alcotest.(check int) "write implies read" 65 (Vmsim.read_u8 vm 8192)

let test_fault_handler_enables () =
  let _clock, vm = mk () in
  let b = buf 'z' in
  let handled = ref 0 in
  Vmsim.set_fault_handler vm (fun ~frame ~access:_ ->
      incr handled;
      Vmsim.map vm ~frame ~buf:b;
      Vmsim.set_prot vm ~frame Vmsim.Prot_read);
  Alcotest.(check int) "access succeeds via handler" (Char.code 'z') (Vmsim.read_u8 vm (7 * 8192));
  Alcotest.(check int) "one fault" 1 !handled;
  Alcotest.(check int) "second access free" (Char.code 'z') (Vmsim.read_u8 vm (7 * 8192));
  Alcotest.(check int) "still one fault" 1 !handled;
  Alcotest.(check int) "fault counter" 1 (Vmsim.fault_count vm)

let test_protect_all_per_frame_charge () =
  let clock, vm = mk () in
  for f = 1 to 50 do
    Vmsim.map vm ~frame:f ~buf:(buf 'x');
    Vmsim.set_prot_free vm ~frame:f Vmsim.Prot_write
  done;
  Clock.reset clock;
  Vmsim.protect_all vm;
  (* One syscall event plus one per-frame event batch: the flat mmap_us
     charge and 50 frames' worth of mmap_frame_us. *)
  Alcotest.(check int) "call + per-frame events" 51 (Clock.category_events clock Cat.Mmap_call);
  let cm = Simclock.Cost_model.default in
  Alcotest.(check (float 1e-6)) "per-frame cost"
    (cm.Simclock.Cost_model.mmap_us +. (50.0 *. cm.Simclock.Cost_model.mmap_frame_us))
    (Clock.category_us clock Cat.Mmap_call);
  Vmsim.iter_mapped
    (fun ~frame:_ ~prot -> Alcotest.(check bool) "revoked" true (prot = Vmsim.Prot_none))
    vm;
  (* An empty address space charges only the flat call cost. *)
  let clock2, vm2 = mk () in
  Vmsim.protect_all vm2;
  Alcotest.(check int) "empty: one event" 1 (Clock.category_events clock2 Cat.Mmap_call)

let test_frame_boundary_guard () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:0 ~buf:(buf 'x');
  Vmsim.set_prot vm ~frame:0 Vmsim.Prot_read;
  Alcotest.check_raises "span crosses frames"
    (Invalid_argument "Vmsim: access crosses a frame boundary") (fun () ->
      ignore (Vmsim.read_bytes vm 8190 4))

let test_unmap_revokes () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:2 ~buf:(buf 'x');
  Vmsim.set_prot vm ~frame:2 Vmsim.Prot_read;
  Vmsim.unmap vm ~frame:2;
  Alcotest.(check bool) "unmapped" false (Vmsim.is_mapped vm ~frame:2);
  match Vmsim.read_u8 vm (2 * 8192) with
  | _ -> Alcotest.fail "expected fault after unmap"
  | exception Vmsim.Unhandled_fault _ -> ()

let test_trap_charging () =
  let clock, vm = mk () in
  let b = buf 'x' in
  Vmsim.set_fault_handler vm (fun ~frame ~access:_ ->
      Vmsim.map vm ~frame ~buf:b;
      Vmsim.set_prot_free vm ~frame Vmsim.Prot_read);
  Clock.reset clock;
  ignore (Vmsim.read_u8 vm (9 * 8192));
  Alcotest.(check bool) "trap cost charged" true (Clock.category_us clock Cat.Page_fault > 0.0);
  let before = Clock.category_us clock Cat.Page_fault in
  ignore (Vmsim.read_u8 vm (9 * 8192));
  Alcotest.(check bool) "no charge on plain access" true
    (Clock.category_us clock Cat.Page_fault = before)

(* --- software-TLB invalidation: a hit must never outlive the mapping
   or serve an access the current protection forbids. Each test primes
   the TLB with a successful access, then changes the address space and
   asserts the stale entry is not honoured. --- *)

let prime vm frame =
  Alcotest.(check int) "primed" (Char.code 'x') (Vmsim.read_u8 vm (frame * 8192))

let test_tlb_unmap_no_stale () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:6 ~buf:(buf 'x');
  Vmsim.set_prot vm ~frame:6 Vmsim.Prot_read;
  prime vm 6;
  Vmsim.unmap vm ~frame:6;
  match Vmsim.read_u8 vm (6 * 8192) with
  | _ -> Alcotest.fail "stale TLB entry served an unmapped frame"
  | exception Vmsim.Unhandled_fault _ -> ()

let test_tlb_downgrade_no_stale () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:8 ~buf:(buf 'x');
  Vmsim.set_prot vm ~frame:8 Vmsim.Prot_write;
  Vmsim.write_u8 vm (8 * 8192) (Char.code 'x');
  (* write access is cached; downgrading to read-only must fault the
     next write even though the mapping record is still live. *)
  Vmsim.set_prot vm ~frame:8 Vmsim.Prot_read;
  (match Vmsim.write_u8 vm (8 * 8192) 1 with
   | () -> Alcotest.fail "stale TLB entry allowed a write after downgrade"
   | exception Vmsim.Unhandled_fault { access = Vmsim.Write; _ } -> ());
  (* and the free (uncharged) variant must behave identically *)
  Vmsim.set_prot vm ~frame:8 Vmsim.Prot_write;
  Vmsim.write_u8 vm (8 * 8192) (Char.code 'x');
  Vmsim.set_prot_free vm ~frame:8 Vmsim.Prot_none;
  match Vmsim.read_u8 vm (8 * 8192) with
  | _ -> Alcotest.fail "stale TLB entry survived set_prot_free"
  | exception Vmsim.Unhandled_fault _ -> ()

let test_tlb_protect_all_no_stale () =
  let _clock, vm = mk () in
  for f = 1 to 5 do
    Vmsim.map vm ~frame:f ~buf:(buf 'x');
    Vmsim.set_prot_free vm ~frame:f Vmsim.Prot_read;
    prime vm f
  done;
  Vmsim.protect_all vm;
  for f = 1 to 5 do
    match Vmsim.read_u8 vm (f * 8192) with
    | _ -> Alcotest.fail "stale TLB entry survived protect_all"
    | exception Vmsim.Unhandled_fault _ -> ()
  done

let test_tlb_clear_no_stale () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:11 ~buf:(buf 'x');
  Vmsim.set_prot vm ~frame:11 Vmsim.Prot_read;
  prime vm 11;
  Vmsim.clear vm;
  match Vmsim.read_u8 vm (11 * 8192) with
  | _ -> Alcotest.fail "stale TLB entry survived clear"
  | exception Vmsim.Unhandled_fault _ -> ()

let test_tlb_rebind_no_stale () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:13 ~buf:(buf 'a');
  Vmsim.set_prot vm ~frame:13 Vmsim.Prot_read;
  Alcotest.(check int) "old buffer" (Char.code 'a') (Vmsim.read_u8 vm (13 * 8192));
  (* Rebinding the frame to a different buffer must not serve reads
     from the old one. *)
  Vmsim.map vm ~frame:13 ~buf:(buf 'b');
  Vmsim.set_prot vm ~frame:13 Vmsim.Prot_read;
  Alcotest.(check int) "new buffer" (Char.code 'b') (Vmsim.read_u8 vm (13 * 8192))

let test_tlb_index_aliasing () =
  (* Frames that collide in the direct-mapped TLB (same low index bits)
     must evict each other cleanly, and invalidating one alias must not
     disturb the other's mapping. *)
  let _clock, vm = mk () in
  let f1 = 3 and f2 = 3 + 64 and f3 = 3 + 128 in
  List.iter
    (fun f ->
      Vmsim.map vm ~frame:f ~buf:(buf 'x');
      Vmsim.set_prot vm ~frame:f Vmsim.Prot_read)
    [ f1; f2; f3 ];
  prime vm f1;
  prime vm f2;
  (* f2 now owns the slot; f1 must still resolve via the slow path *)
  prime vm f1;
  Vmsim.unmap vm ~frame:f1;
  (* unmapping f1 while f1 happens to own the slot must not break f2/f3 *)
  prime vm f2;
  prime vm f3;
  match Vmsim.read_u8 vm (f1 * 8192) with
  | _ -> Alcotest.fail "unmapped alias still readable"
  | exception Vmsim.Unhandled_fault _ -> ()

let test_checked_mode_roundtrip () =
  (* The sanitizer's bounds-checked path must agree with the default
     unchecked path bit for bit. *)
  let _clock, vm = mk () in
  Vmsim.set_checked vm true;
  Vmsim.map vm ~frame:4 ~buf:(buf '\000');
  Vmsim.set_prot vm ~frame:4 Vmsim.Prot_write;
  Vmsim.write_u32 vm ((4 * 8192) + 12) 0xCAFE1234;
  Alcotest.(check int) "u32 checked" 0xCAFE1234 (Vmsim.read_u32 vm ((4 * 8192) + 12));
  Vmsim.write_u8 vm ((4 * 8192) + 7) 200;
  Alcotest.(check int) "u8 checked" 200 (Vmsim.read_u8 vm ((4 * 8192) + 7));
  Vmsim.set_checked vm false;
  Alcotest.(check int) "u32 unchecked agrees" 0xCAFE1234 (Vmsim.read_u32 vm ((4 * 8192) + 12))

let test_u32_roundtrip_via_vm () =
  let _clock, vm = mk () in
  Vmsim.map vm ~frame:4 ~buf:(buf '\000');
  Vmsim.set_prot vm ~frame:4 Vmsim.Prot_write;
  Vmsim.write_u32 vm ((4 * 8192) + 12) 0xCAFE1234;
  Alcotest.(check int) "u32" 0xCAFE1234 (Vmsim.read_u32 vm ((4 * 8192) + 12))

(* --- the fused TLB-hit accessors against the general path. Each case
   runs twice: once with the frame's TLB slot holding the frame (a hit)
   and once with the slot holding an alias 64 frames up (a miss), so
   both the fused body and the slow function answer it. --- *)

let fast_frame = 5
let alias_frame = fast_frame + 64

let fast_setup ~hit =
  let _clock, vm = mk () in
  let b = Bytes.init Vmsim.frame_size (fun i -> Char.chr ((i * 7) land 0xff)) in
  Vmsim.map vm ~frame:fast_frame ~buf:b;
  Vmsim.map vm ~frame:alias_frame ~buf:(buf 'x');
  Vmsim.set_prot_free vm ~frame:fast_frame Vmsim.Prot_write;
  Vmsim.set_prot_free vm ~frame:alias_frame Vmsim.Prot_write;
  let prime () =
    ignore (Vmsim.read_u8 vm (Vmsim.addr_of_frame (if hit then fast_frame else alias_frame)))
  in
  (vm, b, prime)

let both f () = List.iter (fun hit -> f ~hit) [ true; false ]
let base = Vmsim.addr_of_frame fast_frame
let le32 b off = Qs_util.Codec.get_u32 b off

let crosses = Invalid_argument "Vmsim: access crosses a frame boundary"

let test_fast_u32_offsets ~hit =
  let vm, b, prime = fast_setup ~hit in
  List.iter
    (fun off ->
      prime ();
      Alcotest.(check int) (Printf.sprintf "read at %d" off) (le32 b off)
        (Vmsim.read_u32 vm (base + off));
      prime ();
      Vmsim.write_u32 vm (base + off) (0xA1B2C3D4 + off);
      Alcotest.(check int) (Printf.sprintf "write at %d" off) (0xA1B2C3D4 + off) (le32 b off))
    [ 0; 8188 ];
  List.iter
    (fun off ->
      prime ();
      Alcotest.check_raises (Printf.sprintf "read at %d" off) crosses (fun () ->
          ignore (Vmsim.read_u32 vm (base + off)));
      prime ();
      Alcotest.check_raises (Printf.sprintf "write at %d" off) crosses (fun () ->
          Vmsim.write_u32 vm (base + off) 1))
    [ 8189; 8190; 8191 ]

let test_fast_negative_addr ~hit =
  let vm, _b, prime = fast_setup ~hit in
  let rejects name f =
    prime ();
    match f () with
    | () -> Alcotest.failf "%s: a negative address was served" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun addr ->
      rejects "read_u8" (fun () -> ignore (Vmsim.read_u8 vm addr));
      rejects "read_u32" (fun () -> ignore (Vmsim.read_u32 vm addr));
      rejects "write_u8" (fun () -> Vmsim.write_u8 vm addr 1);
      rejects "write_u32" (fun () -> Vmsim.write_u32 vm addr 1))
    [ -4; -8192 + 8; min_int ]

let test_fast_protect_all_faults ~hit =
  let vm, b, prime = fast_setup ~hit in
  let handled = ref 0 in
  Vmsim.set_fault_handler vm (fun ~frame ~access:_ ->
      incr handled;
      Vmsim.set_prot_free vm ~frame Vmsim.Prot_read);
  prime ();
  Vmsim.protect_all vm;
  Alcotest.(check int) "read through the handler" (le32 b 40) (Vmsim.read_u32 vm (base + 40));
  Alcotest.(check int) "one fault" 1 !handled;
  Alcotest.(check int) "then served" (le32 b 44) (Vmsim.read_u32 vm (base + 44));
  Alcotest.(check int) "still one fault" 1 !handled

let test_fast_downgrade_write_faults ~hit =
  let vm, _b, prime = fast_setup ~hit in
  prime ();
  Vmsim.write_u32 vm (base + 16) 7;
  Vmsim.write_u8 vm (base + 16) 7;
  Vmsim.set_prot vm ~frame:fast_frame Vmsim.Prot_read;
  prime ();
  (match Vmsim.write_u32 vm (base + 16) 8 with
   | () -> Alcotest.fail "write_u32 served after a downgrade"
   | exception Vmsim.Unhandled_fault { access = Vmsim.Write; _ } -> ());
  (match Vmsim.write_u8 vm (base + 16) 8 with
   | () -> Alcotest.fail "write_u8 served after a downgrade"
   | exception Vmsim.Unhandled_fault { access = Vmsim.Write; _ } -> ());
  Alcotest.(check int) "reads still served" 7 (Vmsim.read_u32 vm (base + 16))

let test_fast_checked_agrees ~hit =
  let vm, _b, prime = fast_setup ~hit in
  List.iter
    (fun off ->
      let read checked =
        Vmsim.set_checked vm checked;
        prime ();
        let u32 = Vmsim.read_u32 vm (base + off) in
        prime ();
        (u32, Vmsim.read_u8 vm (base + off))
      in
      let c32, c8 = read true and u32, u8 = read false in
      Alcotest.(check int) (Printf.sprintf "u32 at %d" off) c32 u32;
      Alcotest.(check int) (Printf.sprintf "u8 at %d" off) c8 u8)
    [ 0; 1; 13; 4096; 8188 ]

(* A load on a resident page allocates nothing: 10k reads may cost at
   most the measurement's own few words. *)
let test_fast_read_allocates_nothing () =
  let vm, _b, prime = fast_setup ~hit:true in
  prime ();
  let n = 10_000 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    acc := !acc + Vmsim.read_u32 vm (base + ((i land 1023) * 4))
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  if words > 16.0 then Alcotest.failf "%.0f minor words for %d reads" words n

let () =
  Alcotest.run "vmsim"
    [ ( "vmsim"
      , [ Alcotest.test_case "address arithmetic" `Quick test_address_arithmetic
        ; Alcotest.test_case "read protection" `Quick test_read_requires_protection
        ; Alcotest.test_case "write protection" `Quick test_write_requires_write_prot
        ; Alcotest.test_case "fault handler retry" `Quick test_fault_handler_enables
        ; Alcotest.test_case "protect_all per-frame charge" `Quick test_protect_all_per_frame_charge
        ; Alcotest.test_case "frame boundary" `Quick test_frame_boundary_guard
        ; Alcotest.test_case "unmap revokes" `Quick test_unmap_revokes
        ; Alcotest.test_case "trap charging" `Quick test_trap_charging
        ; Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip_via_vm ] )
    ; ( "tlb"
      , [ Alcotest.test_case "unmap invalidates" `Quick test_tlb_unmap_no_stale
        ; Alcotest.test_case "prot downgrade invalidates" `Quick test_tlb_downgrade_no_stale
        ; Alcotest.test_case "protect_all invalidates" `Quick test_tlb_protect_all_no_stale
        ; Alcotest.test_case "clear invalidates" `Quick test_tlb_clear_no_stale
        ; Alcotest.test_case "rebind invalidates" `Quick test_tlb_rebind_no_stale
        ; Alcotest.test_case "index aliasing" `Quick test_tlb_index_aliasing
        ; Alcotest.test_case "checked mode roundtrip" `Quick test_checked_mode_roundtrip ] )
    ; ( "fast path"
      , [ Alcotest.test_case "u32 offsets" `Quick (both test_fast_u32_offsets)
        ; Alcotest.test_case "negative address" `Quick (both test_fast_negative_addr)
        ; Alcotest.test_case "protect_all faults" `Quick (both test_fast_protect_all_faults)
        ; Alcotest.test_case "write after downgrade" `Quick (both test_fast_downgrade_write_faults)
        ; Alcotest.test_case "checked agrees" `Quick (both test_fast_checked_agrees)
        ; Alcotest.test_case "read allocates nothing" `Quick test_fast_read_allocates_nothing ] ) ]
