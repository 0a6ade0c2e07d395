module Rng = Qs_util.Rng

module Point = struct
  let commit_pre_log = "commit.pre_log"
  let commit_pre_flush = "commit.pre_flush"
  let commit_mid_flush = "commit.mid_flush"
  let commit_post_flush = "commit.post_flush"
  let commit_ship_page = "commit.ship_page"
  let commit_ship_region = "commit.ship_region"
  let commit_region_torn = "commit.region_torn"
  let wal_force_partial = "wal.force_partial"
  let prepare_pre_log = "prepare.pre_log"
  let prepare_post_log = "prepare.post_log"
  let prepare_mid_flush = "prepare.mid_flush"
  let abort_mid_undo = "abort.mid_undo"
  let evict_steal_write = "evict.steal_write"
  let checkpoint_mid_flush = "checkpoint.mid_flush"
  let disk_torn_write = "disk.torn_write"
  let dist_pre_prepare = "dist.pre_prepare"
  let dist_pre_decision = "dist.pre_decision"
  let dist_mid_decision = "dist.mid_decision"
  let snapshot_trim = "snapshot.trim"
  let snapshot_materialize = "snapshot.materialize"
  let index_log_append = "index.log_append"
  let index_merge_write = "index.merge_write"
  let index_merge_swing = "index.merge_swing"

  let all =
    [ commit_pre_log; commit_pre_flush; commit_mid_flush; commit_post_flush; commit_ship_page
    ; commit_ship_region; commit_region_torn
    ; wal_force_partial; prepare_pre_log; prepare_post_log; prepare_mid_flush; abort_mid_undo
    ; evict_steal_write; checkpoint_mid_flush; disk_torn_write; dist_pre_prepare
    ; dist_pre_decision; dist_mid_decision; snapshot_trim; snapshot_materialize
    ; index_log_append; index_merge_write; index_merge_swing ]

  let mem p = List.mem p all
end

type disk_op = Read | Write
type disk_decision = Io_ok | Io_fail | Io_torn of int
type net_decision = Net_ok | Net_drop | Net_dup | Net_delay of float

exception Injected_crash of { point : string; hit : int }
exception Io_error of { op : disk_op; page : int }
exception Net_error of { op : string; page : int }

type plan = {
  crash_point : (string * int) option;
  disk_read_p : float;
  disk_write_p : float;
  net_drop_p : float;
  net_dup_p : float;
  net_delay_p : float;
  net_delay_us : float;
  rng_seed : int;
}

let no_faults =
  { crash_point = None
  ; disk_read_p = 0.0
  ; disk_write_p = 0.0
  ; net_drop_p = 0.0
  ; net_dup_p = 0.0
  ; net_delay_p = 0.0
  ; net_delay_us = 0.0
  ; rng_seed = 0 }

let spec_syntax =
  "comma-separated key=value: disk|disk_read|disk_write|drop|dup|delay=<prob>, \
   delay_us=<microseconds>, crash=<point>:<hit> (points: " ^ String.concat " " Point.all ^ ")"

let plan_of_spec ~seed spec =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let prob key v =
    match float_of_string_opt v with
    | Some p when p >= 0.0 && p <= 1.0 -> p
    | _ -> bad "fault spec: %s=%s is not a probability in [0,1]" key v
  in
  let plan = ref { no_faults with rng_seed = seed } in
  String.split_on_char ',' spec
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.index_opt item '=' with
           | None -> bad "fault spec: %S is not key=value (%s)" item spec_syntax
           | Some i ->
             let key = String.sub item 0 i in
             let v = String.sub item (i + 1) (String.length item - i - 1) in
             (match key with
              | "disk" ->
                let p = prob key v in
                plan := { !plan with disk_read_p = p; disk_write_p = p }
              | "disk_read" -> plan := { !plan with disk_read_p = prob key v }
              | "disk_write" -> plan := { !plan with disk_write_p = prob key v }
              | "drop" -> plan := { !plan with net_drop_p = prob key v }
              | "dup" -> plan := { !plan with net_dup_p = prob key v }
              | "delay" -> plan := { !plan with net_delay_p = prob key v }
              | "delay_us" ->
                (match float_of_string_opt v with
                 | Some us when us >= 0.0 -> plan := { !plan with net_delay_us = us }
                 | _ -> bad "fault spec: delay_us=%s is not a duration" v)
              | "crash" ->
                (match String.index_opt v ':' with
                 | None -> bad "fault spec: crash=%s needs <point>:<hit>" v
                 | Some j ->
                   let point = String.sub v 0 j in
                   let hit = String.sub v (j + 1) (String.length v - j - 1) in
                   if not (Point.mem point) then
                     bad "fault spec: unknown crash point %S (see --help)" point;
                   (match int_of_string_opt hit with
                    | Some h when h >= 1 -> plan := { !plan with crash_point = Some (point, h) }
                    | _ -> bad "fault spec: crash hit %S is not a positive integer" hit))
              | _ -> bad "fault spec: unknown key %S (%s)" key spec_syntax));
  !plan

type t = {
  mutable plan : plan option;  (* None = disarmed: every hook is a no-op *)
  mutable rng : Rng.t;
  counts : (string, int) Hashtbl.t;
  mutable fired_at : (string * int) option;
  mutable transients : int;
  mutable halt : bool;
}

let create () =
  { plan = None
  ; rng = Rng.create 0
  ; counts = Hashtbl.create 16
  ; fired_at = None
  ; transients = 0
  ; halt = false }

let arm t plan =
  t.plan <- Some plan;
  t.rng <- Rng.create plan.rng_seed;
  Hashtbl.reset t.counts;
  t.fired_at <- None;
  t.transients <- 0;
  t.halt <- false

let disarm t = t.plan <- None
let armed t = t.plan <> None
let crash_at t ~point ~hit = arm t { no_faults with crash_point = Some (point, hit) }
let halted t = t.halt
let clear_halt t = t.halt <- false
let hit_count t p = match Hashtbl.find_opt t.counts p with Some n -> n | None -> 0
let fired t = t.fired_at
let transients_injected t = t.transients

let bump t p =
  let n = hit_count t p + 1 in
  Hashtbl.replace t.counts p n;
  n

let fire ?on_fire t point n =
  t.fired_at <- Some (point, n);
  t.halt <- true;
  (match on_fire with Some f -> f ~frac:(Rng.float t.rng 1.0) | None -> ());
  raise (Injected_crash { point; hit = n })

let hit ?on_fire t point =
  if not (Point.mem point) then
    invalid_arg (Printf.sprintf "Qs_fault.hit: unregistered crash point %S" point);
  match t.plan with
  | None -> ()
  | Some plan ->
    let n = bump t point in
    (match plan.crash_point with
     | Some (p, h) when p = point && h = n -> fire ?on_fire t point n
     | Some _ | None -> ())

let sample t p = p > 0.0 && Rng.float t.rng 1.0 < p

let disk_gate t ~op ~page =
  ignore page;
  match t.plan with
  | None -> Io_ok
  | Some plan ->
    (match op with
     | Read ->
       if sample t plan.disk_read_p then begin
         t.transients <- t.transients + 1;
         Io_fail
       end
       else Io_ok
     | Write ->
       (* Torn writes are a scheduled crash, counted over disk writes. *)
       let n = bump t Point.disk_torn_write in
       (match plan.crash_point with
        | Some (p, h) when p = Point.disk_torn_write && h = n ->
          t.fired_at <- Some (Point.disk_torn_write, n);
          t.halt <- true;
          Io_torn (Rng.int t.rng 8161 (* 0 .. page body bytes *))
        | _ ->
          if sample t plan.disk_write_p then begin
            t.transients <- t.transients + 1;
            Io_fail
          end
          else Io_ok))

let net_gate t ~op ~page =
  ignore op;
  ignore page;
  match t.plan with
  | None -> Net_ok
  | Some plan ->
    if sample t plan.net_drop_p then begin
      t.transients <- t.transients + 1;
      Net_drop
    end
    else if sample t plan.net_dup_p then begin
      t.transients <- t.transients + 1;
      Net_dup
    end
    else if sample t plan.net_delay_p then begin
      t.transients <- t.transients + 1;
      Net_delay plan.net_delay_us
    end
    else Net_ok
