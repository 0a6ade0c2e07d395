(* Schema/layout tests: offsets, pointer widths per scheme, QS-B
   padding, pointer bitmaps, serialization, and the simulated-clock
   accounting they feed. *)

module Clock = Simclock.Clock
module Cat = Simclock.Category

let part =
  Schema.class_def "Part"
    [ ("id", Schema.F_int); ("name", Schema.F_chars 10); ("owner", Schema.F_ptr)
    ; ("next", Schema.F_ptr); ("x", Schema.F_int) ]

let test_layout_vm_ptr () =
  let l = Schema.layout ~repr:Schema.Vm_ptr part in
  (* id 4 + name 12 (rounded) + owner 4 + next 4 + x 4 = 28 *)
  Alcotest.(check int) "size" 28 l.Schema.l_size;
  Alcotest.(check int) "id at 0" 0 (Schema.field_offset l "id");
  Alcotest.(check int) "name at 4" 4 (Schema.field_offset l "name");
  Alcotest.(check int) "owner at 16" 16 (Schema.field_offset l "owner");
  Alcotest.(check int) "next at 20" 20 (Schema.field_offset l "next");
  Alcotest.(check (array int)) "pointer offsets" [| 16; 20 |] (Schema.ptr_offsets l)

let test_layout_oid_ptr () =
  let l = Schema.layout ~repr:Schema.Oid_ptr part in
  (* id 4 + name 12 + owner 16 + next 16 + x 4 = 52 *)
  Alcotest.(check int) "size with big pointers" 52 l.Schema.l_size;
  Alcotest.(check (array int)) "pointer offsets" [| 16; 32 |] (Schema.ptr_offsets l)

let test_padding_qs_b () =
  let e_size = (Schema.layout ~repr:Schema.Oid_ptr part).Schema.l_size in
  let l = Schema.layout ~repr:Schema.Vm_ptr ~pad_to:e_size part in
  Alcotest.(check int) "padded to E size" e_size l.Schema.l_size;
  (* Offsets keep the compact layout; only the size grows. *)
  Alcotest.(check int) "owner still at 16" 16 (Schema.field_offset l "owner")

let test_char_alignment () =
  let l =
    Schema.layout ~repr:Schema.Vm_ptr
      (Schema.class_def "C" [ ("a", Schema.F_chars 1); ("b", Schema.F_int) ])
  in
  Alcotest.(check int) "chars rounded to 4" 4 (Schema.field_offset l "b");
  Alcotest.(check int) "size" 8 l.Schema.l_size

let test_registry_and_serialize () =
  let t = Schema.create ~repr:Schema.Vm_ptr in
  let _ = Schema.add t part in
  let _ = Schema.add t ~pad_to:100 (Schema.class_def "Padded" [ ("v", Schema.F_int) ]) in
  Alcotest.(check bool) "mem" true (Schema.mem t "Part");
  Alcotest.(check (list string)) "classes in order" [ "Part"; "Padded" ] (Schema.classes t);
  let t' = Schema.deserialize (Schema.serialize t) in
  Alcotest.(check (list string)) "classes survive" [ "Part"; "Padded" ] (Schema.classes t');
  Alcotest.(check int) "layout survives" 28 (Schema.find t' "Part").Schema.l_size;
  Alcotest.(check int) "padding survives" 100 (Schema.find t' "Padded").Schema.l_size;
  Alcotest.(check (array int)) "bitmap info survives"
    (Schema.ptr_offsets (Schema.find t "Part"))
    (Schema.ptr_offsets (Schema.find t' "Part"))

let test_duplicate_class_rejected () =
  let t = Schema.create ~repr:Schema.Vm_ptr in
  let _ = Schema.add t part in
  Alcotest.check_raises "dup" (Invalid_argument "Schema.add: class Part already registered")
    (fun () -> ignore (Schema.add t part))

let test_unknown_field () =
  let l = Schema.layout ~repr:Schema.Vm_ptr part in
  Alcotest.check_raises "no field" (Invalid_argument "Schema: no field ghost in Part") (fun () ->
      ignore (Schema.field_offset l "ghost"))

(* --- simulated clock --- *)

let test_clock_accumulation () =
  let c = Clock.create () in
  Clock.charge c Cat.Data_io 1000.0;
  Clock.charge c Cat.Data_io 500.0;
  Clock.charge_n c Cat.Swizzle 10 2.0;
  Alcotest.(check (float 0.001)) "category" 1500.0 (Clock.category_us c Cat.Data_io);
  Alcotest.(check int) "events" 2 (Clock.category_events c Cat.Data_io);
  Alcotest.(check int) "bulk events" 10 (Clock.category_events c Cat.Swizzle);
  Alcotest.(check (float 0.001)) "total" 1520.0 (Clock.total_us c)

let test_clock_snapshots () =
  let c = Clock.create () in
  Clock.charge c Cat.Interp 100.0;
  let s = Clock.snapshot c in
  Clock.charge c Cat.Interp 50.0;
  Clock.charge c Cat.Diff 25.0;
  let d = Clock.since c s in
  Alcotest.(check (float 0.001)) "delta interp" 50.0 (Clock.snap_category_us d Cat.Interp);
  Alcotest.(check (float 0.001)) "delta diff" 25.0 (Clock.snap_category_us d Cat.Diff);
  Alcotest.(check (float 0.001)) "delta total" 75.0 (Clock.snap_total_us d);
  Clock.reset c;
  Alcotest.(check (float 0.001)) "reset" 0.0 (Clock.total_us c)

let test_category_names_unique () =
  let names = List.map Simclock.Category.name Simclock.Category.all in
  Alcotest.(check int) "all categories named distinctly"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "index covers all" (List.length Simclock.Category.all)
    Simclock.Category.count

(* [Category.index] is the constructor's representation, so the
   variant's declaration order is the index: pin it against [all] so a
   reordering cannot silently file charges under another category. *)
let test_category_index_order () =
  List.iteri
    (fun pos c ->
      Alcotest.(check int) (Simclock.Category.name c) pos (Simclock.Category.index c))
    Simclock.Category.all;
  Alcotest.(check int) "count" (List.length Simclock.Category.all) Simclock.Category.count

let prop_layout_fields_disjoint =
  QCheck.Test.make ~name:"layout fields never overlap" ~count:200
    QCheck.(list (int_bound 2))
    (fun kinds ->
      let fields =
        List.mapi
          (fun i k ->
            ( Printf.sprintf "f%d" i
            , match k with 0 -> Schema.F_int | 1 -> Schema.F_ptr | _ -> Schema.F_chars 7 ))
          kinds
      in
      fields = []
      ||
      let def = Schema.class_def "X" fields in
      List.for_all
        (fun repr ->
          let l = Schema.layout ~repr def in
          let spans =
            List.mapi
              (fun i (_, k) ->
                let w =
                  match k with
                  | Schema.F_int -> 4
                  | Schema.F_ptr -> Schema.ptr_width repr
                  | Schema.F_chars n -> (n + 3) / 4 * 4
                in
                (l.Schema.l_offsets.(i), w))
              fields
          in
          let sorted = List.sort compare spans in
          let rec disjoint = function
            | (o1, w1) :: ((o2, _) :: _ as rest) -> o1 + w1 <= o2 && disjoint rest
            | [ _ ] | [] -> true
          in
          disjoint sorted
          && List.for_all (fun (o, w) -> o + w <= l.Schema.l_size) spans)
        [ Schema.Vm_ptr; Schema.Oid_ptr ])

let prop_schema_serialize_roundtrip =
  QCheck.Test.make ~name:"schema serialization roundtrip" ~count:100
    QCheck.(list (pair (int_range 1 5) (int_bound 2)))
    (fun classes ->
      let t = Schema.create ~repr:Schema.Oid_ptr in
      List.iteri
        (fun ci (nfields, k) ->
          let fields =
            List.init nfields (fun i ->
                ( Printf.sprintf "f%d" i
                , match (k + i) mod 3 with 0 -> Schema.F_int | 1 -> Schema.F_ptr | _ -> Schema.F_chars 9 ))
          in
          ignore (Schema.add t (Schema.class_def (Printf.sprintf "C%d" ci) fields)))
        classes;
      let t' = Schema.deserialize (Schema.serialize t) in
      Schema.classes t = Schema.classes t'
      && List.for_all
           (fun c ->
             let a = Schema.find t c and b = Schema.find t' c in
             a.Schema.l_size = b.Schema.l_size && Schema.ptr_offsets a = Schema.ptr_offsets b)
           (Schema.classes t))

let () =
  Alcotest.run "schema"
    [ ( "layout"
      , [ Alcotest.test_case "vm pointers" `Quick test_layout_vm_ptr
        ; Alcotest.test_case "oid pointers" `Quick test_layout_oid_ptr
        ; Alcotest.test_case "QS-B padding" `Quick test_padding_qs_b
        ; Alcotest.test_case "char alignment" `Quick test_char_alignment
        ; Alcotest.test_case "registry + serialize" `Quick test_registry_and_serialize
        ; Alcotest.test_case "duplicate rejected" `Quick test_duplicate_class_rejected
        ; Alcotest.test_case "unknown field" `Quick test_unknown_field ] )
    ; ( "simclock"
      , [ Alcotest.test_case "accumulation" `Quick test_clock_accumulation
        ; Alcotest.test_case "snapshots" `Quick test_clock_snapshots
        ; Alcotest.test_case "category names" `Quick test_category_names_unique
        ; Alcotest.test_case "category index order" `Quick test_category_index_order ] )
    ; ( "properties"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_layout_fields_disjoint; prop_schema_serialize_roundtrip ] ) ]
