(* Qs_trace / Qs_metrics tests: span nesting, exact category totals
   against the simulated clock, Chrome trace_event well-formedness,
   zero allocation when disarmed, and armed-vs-disarmed clock
   bit-identity on a real OO7 run. *)

module Clock = Simclock.Clock
module Cat = Simclock.Category
module Sys_ = Harness.System
module Params = Oo7.Params

(* ------------------------------------------------------------------ *)
(* Span nesting and event stream shape.                                *)

let test_span_nesting () =
  let clock = Clock.create () in
  let trace = Qs_trace.create ~clock () in
  Qs_trace.arm trace;
  Qs_trace.span_begin clock ~cat:"t" "outer";
  Qs_trace.charge clock Cat.Interp 1.0;
  Qs_trace.with_span clock ~cat:"t" "inner" (fun () ->
    Qs_trace.charge clock Cat.Diff 2.0;
    Qs_trace.instant clock ~cat:"t" "tick");
  Qs_trace.charge clock Cat.Interp 3.0;
  Qs_trace.span_end clock;
  Qs_trace.disarm trace;
  let evs = Qs_trace.events trace in
  Alcotest.(check int) "event count" 8 (Array.length evs);
  let outer_id =
    match evs.(0) with
    | Qs_trace.Ev_begin { id; parent; name; _ } ->
      Alcotest.(check string) "outer name" "outer" name;
      Alcotest.(check int) "outer is a root span" (-1) parent;
      id
    | _ -> Alcotest.fail "expected Ev_begin first"
  in
  (match evs.(1) with
   | Qs_trace.Ev_charge { cat; span; n; _ } ->
     Alcotest.(check bool) "charge cat" true (cat = Cat.Interp);
     Alcotest.(check int) "charge n" 1 n;
     Alcotest.(check int) "charge lands in outer" outer_id span
   | _ -> Alcotest.fail "expected Ev_charge");
  let inner_id =
    match evs.(2) with
    | Qs_trace.Ev_begin { id; parent; name; _ } ->
      Alcotest.(check string) "inner name" "inner" name;
      Alcotest.(check int) "inner nests under outer" outer_id parent;
      id
    | _ -> Alcotest.fail "expected inner Ev_begin"
  in
  (match evs.(3) with
   | Qs_trace.Ev_charge { span; _ } ->
     Alcotest.(check int) "nested charge lands in inner" inner_id span
   | _ -> Alcotest.fail "expected nested Ev_charge");
  (match evs.(4) with
   | Qs_trace.Ev_instant { span; name; _ } ->
     Alcotest.(check string) "instant name" "tick" name;
     Alcotest.(check int) "instant lands in inner" inner_id span
   | _ -> Alcotest.fail "expected Ev_instant");
  (match evs.(5) with
   | Qs_trace.Ev_end { id; _ } -> Alcotest.(check int) "inner closed" inner_id id
   | _ -> Alcotest.fail "expected inner Ev_end");
  (match evs.(6) with
   | Qs_trace.Ev_charge { span; _ } ->
     Alcotest.(check int) "after with_span, back to outer" outer_id span
   | _ -> Alcotest.fail "expected post-inner Ev_charge");
  (match evs.(7) with
   | Qs_trace.Ev_end { id; _ } -> Alcotest.(check int) "outer closed" outer_id id
   | _ -> Alcotest.fail "expected Ev_end last")

let test_with_span_exception_safe () =
  let clock = Clock.create () in
  let trace = Qs_trace.create ~clock () in
  Qs_trace.arm trace;
  (try
     Qs_trace.with_span clock ~cat:"t" "doomed" (fun () -> raise Exit)
   with Exit -> ());
  Qs_trace.disarm trace;
  let evs = Qs_trace.events trace in
  Alcotest.(check int) "begin + end despite raise" 2 (Array.length evs);
  match (evs.(0), evs.(1)) with
  | Qs_trace.Ev_begin { id = b; _ }, Qs_trace.Ev_end { id = e; _ } ->
    Alcotest.(check int) "span closed" b e
  | _ -> Alcotest.fail "expected Ev_begin then Ev_end"

(* ------------------------------------------------------------------ *)
(* Category totals: replayed trace totals must equal the clock's own
   totals bit for bit, on a real OO7 run over the simulated store.     *)

let test_totals_match_clock () =
  let sys = Sys_.make_qs Params.tiny ~seed:1234 in
  let clock = Esm.Server.clock sys.Sys_.server in
  Clock.reset clock;
  let trace = Qs_trace.create ~clock () in
  Qs_trace.arm trace;
  let r = sys.Sys_.run ~op:"T1" ~seed:1234 ~hot_reps:1 in
  Qs_trace.disarm trace;
  Alcotest.(check bool) "run faulted" true (r.Sys_.cold_faults > 0);
  let m = Qs_metrics.of_trace trace in
  (match Qs_metrics.crosscheck m clock with
   | Ok () -> ()
   | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* Bit-exact equality, not epsilon equality. *)
  List.iter
    (fun cat ->
      Alcotest.(check int64)
        (Cat.name cat ^ " bits")
        (Int64.bits_of_float (Clock.category_us clock cat))
        (Int64.bits_of_float (Qs_metrics.category_us m cat));
      Alcotest.(check int)
        (Cat.name cat ^ " events")
        (Clock.category_events clock cat)
        (Qs_metrics.category_events m cat))
    Cat.all;
  Alcotest.(check int64) "grand total bits"
    (Int64.bits_of_float (Clock.total_us clock))
    (Int64.bits_of_float (Qs_metrics.total_us m));
  (* The harness put the run under a txn span; its inclusive rollup
     covers everything charged during the run. *)
  match Qs_metrics.find_span m "txn:T1" with
  | None -> Alcotest.fail "txn:T1 span missing"
  | Some row ->
    Alcotest.(check int) "txn opened once" 1 row.Qs_metrics.sr_count;
    Alcotest.(check int64) "txn inclusive us == clock total"
      (Int64.bits_of_float (Clock.total_us clock))
      (Int64.bits_of_float (Array.fold_left ( +. ) 0.0 row.Qs_metrics.sr_us))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export: well-formed JSON with the right shape.
   No JSON library in the image, so a minimal recursive-descent parser
   lives here; it accepts exactly the JSON grammar (RFC 8259) minus
   \u surrogate pairing, which the exporter never emits.               *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           (* BMP only; the exporter escapes only control chars. *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
         | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); J_obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); J_arr [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); J_arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4; J_bool true
      end else fail "bad literal"
    | Some 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5; J_bool false
      end else fail "bad literal"
    | Some 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4; J_null
      end else fail "bad literal"
    | Some ('-' | '0' .. '9') -> J_num (parse_number ())
    | _ -> fail "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function J_obj kvs -> List.assoc_opt k kvs | _ -> None

let test_chrome_json () =
  let sys = Sys_.make_qs Params.tiny ~seed:1234 in
  let clock = Esm.Server.clock sys.Sys_.server in
  Clock.reset clock;
  let trace = Qs_trace.create ~clock () in
  Qs_trace.arm trace;
  let _ = sys.Sys_.run ~op:"T1" ~seed:1234 ~hot_reps:0 in
  Qs_trace.disarm trace;
  let check_export ~include_charges =
    let s = Qs_trace.to_chrome ~include_charges trace in
    let j = try parse_json s with Bad_json m -> Alcotest.fail ("invalid JSON: " ^ m) in
    match member "traceEvents" j with
    | Some (J_arr evs) ->
      Alcotest.(check bool) "has events" true (List.length evs > 0);
      List.iter
        (fun e ->
          let str_member k =
            match member k e with Some (J_str v) -> v | _ -> Alcotest.fail ("missing " ^ k)
          in
          let num_member k =
            match member k e with Some (J_num v) -> v | _ -> Alcotest.fail ("missing " ^ k)
          in
          let ph = str_member "ph" in
          Alcotest.(check bool) "known phase" true
            (ph = "X" || ph = "i" || ph = "C" || ph = "M");
          if ph <> "M" then begin
            let ts = num_member "ts" in
            Alcotest.(check bool) "ts is a finite simulated us" true
              (Float.is_finite ts && ts >= 0.0);
            if ph = "X" then
              Alcotest.(check bool) "complete events carry dur" true
                (num_member "dur" >= 0.0)
          end;
          ignore (str_member "name"))
        evs;
      (* Spans survive the round trip: the txn span is present as a
         complete event. *)
      Alcotest.(check bool) "txn span exported" true
        (List.exists
           (fun e -> member "name" e = Some (J_str "txn:T1") && member "ph" e = Some (J_str "X"))
           evs)
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check_export ~include_charges:false;
  check_export ~include_charges:true

(* The shared encoders: backslashes, quotes and control characters
   escape to valid JSON that parses back to the original, NaN is null. *)
let test_json_encoders () =
  let raw = "a\\b\"c\n\001" in
  let enc = Qs_trace.json_string raw in
  Alcotest.(check string) "escaped" "\"a\\\\b\\\"c\\n\\u0001\"" enc;
  Alcotest.(check bool) "round trip" true (parse_json enc = J_str raw);
  Alcotest.(check string) "nan" "null" (Qs_trace.json_float Float.nan);
  Alcotest.(check string) "integer" "3" (Qs_trace.json_float 3.0);
  Alcotest.(check string) "fraction" "0.1" (Qs_trace.json_float 0.1)

(* ------------------------------------------------------------------ *)
(* Disarmed cost: the layer must not allocate on the charge path, and
   span/instant entry points must not allocate once no sink is armed.
   Compared against a control loop on the clock itself so boxing noise
   from the measurement cancels out.                                   *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let test_disarmed_no_alloc () =
  let clock = Clock.create () in
  let iters = 10_000 in
  (* Warm up so one-time setup does not count. *)
  Qs_trace.charge clock Cat.Interp 0.5;
  Clock.charge clock Cat.Interp 0.5;
  Qs_trace.span_begin clock ~cat:"t" "warm";
  Qs_trace.span_end clock;
  Qs_trace.instant clock ~cat:"t" "warm";
  let control =
    minor_words_of (fun () ->
      for _ = 1 to iters do
        Clock.charge clock Cat.Interp 0.5
      done)
  in
  let traced =
    minor_words_of (fun () ->
      for _ = 1 to iters do
        Qs_trace.charge clock Cat.Interp 0.5
      done)
  in
  (* A single boxed float per call would already cost >= 3 words/call
     (30k words over the loop); allow only measurement noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "disarmed charge allocates nothing (control %.0f, traced %.0f)" control traced)
    true
    (traced -. control < 100.0);
  let spans =
    minor_words_of (fun () ->
      for _ = 1 to iters do
        Qs_trace.span_begin clock ~cat:"t" "hot";
        Qs_trace.span_end clock;
        Qs_trace.instant clock ~cat:"t" "hot"
      done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disarmed span/instant allocate nothing (%.0f words)" spans)
    true (spans < 100.0);
  Alcotest.(check bool) "enabled is false when disarmed" false (Qs_trace.enabled clock)

(* ------------------------------------------------------------------ *)
(* Arming must not change what is simulated: two identically built
   systems, one traced and one not, end with bit-identical clocks.     *)

let test_armed_vs_disarmed_clock () =
  let run ~traced =
    let sys = Sys_.make_qs Params.tiny ~seed:1234 in
    let clock = Esm.Server.clock sys.Sys_.server in
    Clock.reset clock;
    let trace = if traced then Some (Qs_trace.create ~clock ()) else None in
    (match trace with Some t -> Qs_trace.arm t | None -> ());
    let _ = sys.Sys_.run ~op:"T6" ~seed:1234 ~hot_reps:1 in
    (match trace with Some t -> Qs_trace.disarm t | None -> ());
    clock
  in
  let armed = run ~traced:true in
  let plain = run ~traced:false in
  List.iter
    (fun cat ->
      Alcotest.(check int64)
        (Cat.name cat ^ " us bits")
        (Int64.bits_of_float (Clock.category_us plain cat))
        (Int64.bits_of_float (Clock.category_us armed cat));
      Alcotest.(check int)
        (Cat.name cat ^ " events")
        (Clock.category_events plain cat)
        (Clock.category_events armed cat))
    Cat.all

let () =
  Alcotest.run "obs"
    [ ( "trace"
      , [ Alcotest.test_case "span nesting" `Quick test_span_nesting
        ; Alcotest.test_case "with_span exception safety" `Quick test_with_span_exception_safe ] )
    ; ( "metrics"
      , [ Alcotest.test_case "totals match clock bit-exactly" `Quick test_totals_match_clock ] )
    ; ( "chrome"
      , [ Alcotest.test_case "trace_event JSON" `Quick test_chrome_json
        ; Alcotest.test_case "json encoders" `Quick test_json_encoders ] )
    ; ( "cost"
      , [ Alcotest.test_case "disarmed allocates nothing" `Quick test_disarmed_no_alloc
        ; Alcotest.test_case "armed vs disarmed clock identical" `Quick
            test_armed_vs_disarmed_clock ] ) ]
