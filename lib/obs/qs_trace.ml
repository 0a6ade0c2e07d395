module Category = Simclock.Category
module Clock = Simclock.Clock

type arg = A_int of string * int | A_str of string * string | A_float of string * float

type ev =
  | Ev_begin of { id : int; parent : int; name : string; cat : string; ts : float; args : arg list }
  | Ev_end of { id : int; ts : float }
  | Ev_charge of { cat : Category.t; n : int; us : float; span : int; ts : float }
  | Ev_instant of { name : string; cat : string; span : int; ts : float; args : arg list }
  | Ev_counter of { name : string; value : float; span : int; ts : float }

type t = {
  clock : Clock.t;
  mutable evs : ev array;
  mutable len : int;
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_span : int;
  mutable armed : bool;
}

let dummy = Ev_end { id = -1; ts = 0.0 }

let create ~clock () =
  { clock; evs = [||]; len = 0; stack = []; next_span = 0; armed = false }

let clock t = t.clock
let armed t = t.armed
let length t = t.len

(* ------------------------------------------------------------------ *)
(* Registry: one armed sink per clock, looked up by physical equality.
   The list is almost always empty (disarmed runs) or a singleton. *)

let registry : (Clock.t * t) list ref = ref []

(* Top-level so the disarmed fast path allocates nothing: an inner
   [let rec] would close over [clock] and box a closure per call. *)
let rec find_in clock = function
  | [] -> None
  | (c, s) :: tl -> if c == clock then Some s else find_in clock tl

let find clock = find_in clock !registry
let registered () = List.length !registry

let enabled clock = match find clock with Some s -> s.armed | None -> false

(* ------------------------------------------------------------------ *)
(* Recording.                                                          *)

let push t e =
  if t.len = Array.length t.evs then begin
    let n = Array.make (max 1024 (2 * t.len)) dummy in
    Array.blit t.evs 0 n 0 t.len;
    t.evs <- n
  end;
  t.evs.(t.len) <- e;
  t.len <- t.len + 1

let now t = Clock.total_us t.clock
let cur_span t = match t.stack with [] -> -1 | id :: _ -> id

let observe t cat n us = push t (Ev_charge { cat; n; us; span = cur_span t; ts = now t })

let arm t =
  if not t.armed then begin
    registry := (t.clock, t) :: List.filter (fun (c, _) -> c != t.clock) !registry;
    t.armed <- true;
    Clock.set_observer t.clock (Some (observe t))
  end

let disarm t =
  if t.armed then begin
    t.armed <- false;
    Clock.set_observer t.clock None;
    registry := List.filter (fun (c, _) -> c != t.clock) !registry
  end

let clear t =
  t.evs <- [||];
  t.len <- 0;
  t.stack <- [];
  t.next_span <- 0

(* The sanctioned charge API: the clock itself, whose observer hook
   does the recording (so totals match by construction). *)
let charge = Clock.charge
let charge_n = Clock.charge_n

let span_begin_s t ?(args = []) ~cat name =
  let id = t.next_span in
  t.next_span <- id + 1;
  push t (Ev_begin { id; parent = cur_span t; name; cat; ts = now t; args });
  t.stack <- id :: t.stack

let span_end_s t =
  match t.stack with
  | [] -> ()
  | id :: tl ->
    t.stack <- tl;
    push t (Ev_end { id; ts = now t })

let span_begin clock ?args ~cat name =
  match find clock with
  | Some s when s.armed -> span_begin_s s ?args ~cat name
  | Some _ | None -> ()

let span_end clock =
  match find clock with Some s when s.armed -> span_end_s s | Some _ | None -> ()

let with_span clock ?args ~cat name f =
  match find clock with
  | Some s when s.armed -> (
    span_begin_s s ?args ~cat name;
    match f () with
    | v ->
      span_end_s s;
      v
    | exception e ->
      span_end_s s;
      raise e)
  | Some _ | None -> f ()

let instant clock ?(args = []) ~cat name =
  match find clock with
  | Some s when s.armed -> push s (Ev_instant { name; cat; span = cur_span s; ts = now s; args })
  | Some _ | None -> ()

let counter clock name value =
  match find clock with
  | Some s when s.armed -> push s (Ev_counter { name; value; span = cur_span s; ts = now s })
  | Some _ | None -> ()

let events t = Array.sub t.evs 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.evs.(i)
  done

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export.                                          *)

module Json = Qs_util.Json

let buf_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      match a with
      | A_int (k, v) ->
        Json.buf_string b k;
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int v)
      | A_str (k, v) ->
        Json.buf_string b k;
        Buffer.add_char b ':';
        Json.buf_string b v
      | A_float (k, v) ->
        Json.buf_string b k;
        Buffer.add_char b ':';
        Buffer.add_string b (Json.float v))
    args;
  Buffer.add_char b '}'

let to_chrome ?(include_charges = false) t =
  (* Pass 1: close timestamps per span (open spans end at the last
     recorded timestamp). *)
  let last_ts = ref 0.0 in
  let ends = Hashtbl.create 256 in
  iter
    (fun e ->
      let ts =
        match e with
        | Ev_begin { ts; _ } | Ev_charge { ts; _ } | Ev_instant { ts; _ } | Ev_counter { ts; _ } ->
          ts
        | Ev_end { id; ts } ->
          Hashtbl.replace ends id ts;
          ts
      in
      if ts > !last_ts then last_ts := ts)
    t;
  let b = Buffer.create (64 * t.len) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit_common ~name ~cat ~ph ~ts =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "{\"name\":";
    Json.buf_string b name;
    Buffer.add_string b ",\"cat\":";
    Json.buf_string b cat;
    Buffer.add_string b ",\"ph\":\"";
    Buffer.add_string b ph;
    Buffer.add_string b "\",\"ts\":";
    Buffer.add_string b (Json.float ts);
    Buffer.add_string b ",\"pid\":1,\"tid\":1"
  in
  iter
    (fun e ->
      match e with
      | Ev_begin { id; name; cat; ts; args; _ } ->
        let te = match Hashtbl.find_opt ends id with Some e -> e | None -> !last_ts in
        emit_common ~name ~cat ~ph:"X" ~ts;
        Buffer.add_string b ",\"dur\":";
        Buffer.add_string b (Json.float (te -. ts));
        if args <> [] then begin
          Buffer.add_string b ",\"args\":";
          buf_args b args
        end;
        Buffer.add_char b '}'
      | Ev_end _ -> ()
      | Ev_charge { cat; n; us; ts; _ } ->
        if include_charges then begin
          emit_common ~name:(Category.name cat) ~cat:"charge" ~ph:"i" ~ts;
          Buffer.add_string b ",\"s\":\"t\",\"args\":";
          buf_args b [ A_int ("n", n); A_float ("us", us) ];
          Buffer.add_char b '}'
        end
      | Ev_instant { name; cat; ts; args; _ } ->
        emit_common ~name ~cat ~ph:"i" ~ts;
        Buffer.add_string b ",\"s\":\"t\"";
        if args <> [] then begin
          Buffer.add_string b ",\"args\":";
          buf_args b args
        end;
        Buffer.add_char b '}'
      | Ev_counter { name; value; ts; _ } ->
        emit_common ~name ~cat:"counter" ~ph:"C" ~ts;
        Buffer.add_string b ",\"args\":";
        buf_args b [ A_float ("value", value) ];
        Buffer.add_char b '}')
    t;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"simulated-us\"}}";
  Buffer.contents b
